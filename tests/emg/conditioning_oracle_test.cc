/// Differential oracle for the fused conditioning pass: ConditionRecording
/// must equal the per-channel reference chain bit for bit, on every
/// kernel backend the CPU can run. The reference below is the chain as
/// it stood before the fused pass: each channel on its own through
/// BiquadCascade::ProcessSignal (Biquad::Process per sample),
/// FullWaveRectify, a reverse-and-copy FiltFilt and Resample's slice
/// and interpolation logic. Keep it as it is: it is the specification.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "emg/acquisition.h"
#include "emg/emg_io.h"
#include "integration/mutate.h"
#include "signal/butterworth.h"
#include "signal/rectify.h"
#include "signal/resample.h"
#include "synth/dataset.h"
#include "util/kernel_dispatch.h"
#include "util/macros.h"
#include "util/random.h"

namespace mocemg {
namespace {

// ---------------------------------------------------------------------
// The per-channel reference chain.

std::vector<double> ReferenceFiltFilt(const BiquadCascade& cascade,
                                      const std::vector<double>& input) {
  if (input.empty()) return {};
  const size_t pad = std::min<size_t>(input.size() - 1, 256);
  std::vector<double> padded;
  padded.reserve(input.size() + 2 * pad);
  for (size_t i = pad; i > 0; --i) {
    padded.push_back(2.0 * input.front() - input[i]);
  }
  padded.insert(padded.end(), input.begin(), input.end());
  for (size_t i = 1; i <= pad; ++i) {
    padded.push_back(2.0 * input.back() - input[input.size() - 1 - i]);
  }

  BiquadCascade forward = cascade;
  forward.Reset();
  std::vector<double> once = forward.ProcessSignal(padded);
  std::reverse(once.begin(), once.end());
  BiquadCascade backward = cascade;
  backward.Reset();
  std::vector<double> twice = backward.ProcessSignal(once);
  std::reverse(twice.begin(), twice.end());

  return std::vector<double>(twice.begin() + static_cast<ptrdiff_t>(pad),
                             twice.begin() + static_cast<ptrdiff_t>(
                                                 pad + input.size()));
}

Result<std::vector<double>> ReferenceResample(
    const std::vector<double>& signal, double fs_in, double fs_out) {
  if (fs_in <= 0.0 || fs_out <= 0.0) {
    return Status::InvalidArgument("sample rates must be positive");
  }
  if (signal.empty()) return std::vector<double>{};
  if (fs_in == fs_out) return signal;

  std::vector<double> conditioned = signal;
  if (fs_out < fs_in) {
    MOCEMG_ASSIGN_OR_RETURN(
        BiquadCascade lp,
        DesignButterworthLowPass(8, 0.45 * fs_out, fs_in));
    conditioned = ReferenceFiltFilt(lp, signal);
  }

  const size_t out_len = ResampledLength(signal.size(), fs_in, fs_out);
  std::vector<double> out(out_len);
  for (size_t k = 0; k < out_len; ++k) {
    const double t = static_cast<double>(k) / fs_out;
    const double src = t * fs_in;
    const size_t i0 = static_cast<size_t>(std::floor(src));
    if (i0 + 1 >= conditioned.size()) {
      out[k] = conditioned.back();
      continue;
    }
    const double frac = src - static_cast<double>(i0);
    out[k] = (1.0 - frac) * conditioned[i0] + frac * conditioned[i0 + 1];
  }
  return out;
}

Result<EmgRecording> ReferenceCondition(const EmgRecording& raw,
                                        const AcquisitionOptions& options) {
  MOCEMG_RETURN_NOT_OK(raw.Validate());
  if (options.output_rate_hz <= 0.0) {
    return Status::InvalidArgument("output rate must be positive");
  }
  const double fs = raw.sample_rate_hz();
  if (!options.skip_bandpass) {
    if (options.band_low_hz < 0.0 ||
        options.band_low_hz >= options.band_high_hz) {
      return Status::InvalidArgument("band-pass edges");
    }
    if (options.band_high_hz >= fs / 2.0) {
      return Status::InvalidArgument("band-pass upper edge");
    }
  }
  if (options.notch_hz > 0.0 && options.notch_hz >= fs / 2.0) {
    return Status::InvalidArgument("notch frequency");
  }
  std::vector<std::vector<double>> conditioned;
  conditioned.reserve(raw.num_channels());
  for (size_t c = 0; c < raw.num_channels(); ++c) {
    std::vector<double> x = raw.channel(c);
    if (options.notch_hz > 0.0) {
      MOCEMG_ASSIGN_OR_RETURN(
          BiquadCascade notch,
          DesignNotch(options.notch_hz, options.notch_q, fs));
      const size_t needed = static_cast<size_t>(
          4.0 * options.notch_q * fs / (M_PI * options.notch_hz));
      const size_t block = static_cast<size_t>(std::lround(fs));
      size_t warm = 0;
      if (block > 0 && x.size() >= block) {
        const size_t blocks =
            std::min((needed + block - 1) / block, x.size() / block);
        warm = blocks * block;
      }
      std::vector<double> padded;
      padded.reserve(warm + x.size());
      padded.insert(padded.end(), x.begin(),
                    x.begin() + static_cast<ptrdiff_t>(warm));
      padded.insert(padded.end(), x.begin(), x.end());
      padded = notch.ProcessSignal(padded);
      x.assign(padded.begin() + static_cast<ptrdiff_t>(warm),
               padded.end());
    }
    if (!options.skip_bandpass) {
      MOCEMG_ASSIGN_OR_RETURN(
          BiquadCascade bp,
          DesignBandPass(options.filter_order, options.band_low_hz,
                         options.band_high_hz, fs));
      x = bp.ProcessSignal(x);
    }
    x = FullWaveRectify(x);
    MOCEMG_ASSIGN_OR_RETURN(x,
                            ReferenceResample(x, fs, options.output_rate_hz));
    for (double& v : x) {
      if (v < 0.0) v = 0.0;
    }
    conditioned.push_back(std::move(x));
  }
  return EmgRecording::Create(raw.muscles(), std::move(conditioned),
                              options.output_rate_hz);
}

// ---------------------------------------------------------------------

// Restores the auto-detected backend when a test that forces one exits.
struct ScopedAutoBackend {
  ~ScopedAutoBackend() {
    EXPECT_TRUE(SetKernelBackend(KernelBackend::kAuto).ok());
  }
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Conditions `raw` on every usable backend and compares each result with
// the reference: same status code, and on success the same rate, muscles
// and bits. Returns whether the reference conditioned `raw`.
bool ExpectMatchesReference(const EmgRecording& raw,
                            const AcquisitionOptions& options,
                            const std::string& what) {
  ScopedAutoBackend restore;
  const Result<EmgRecording> want = ReferenceCondition(raw, options);
  for (const KernelBackend backend : UsableKernelBackends()) {
    EXPECT_TRUE(SetKernelBackend(backend).ok());
    const Result<EmgRecording> got = ConditionRecording(raw, options);
    const std::string where =
        what + " on " + KernelBackendName(backend);
    EXPECT_EQ(got.ok(), want.ok()) << where << ": " << got.status();
    if (!got.ok() || !want.ok()) {
      EXPECT_EQ(got.status().code(), want.status().code()) << where;
      continue;
    }
    EXPECT_EQ(got->sample_rate_hz(), want->sample_rate_hz()) << where;
    EXPECT_EQ(got->muscles(), want->muscles()) << where;
    EXPECT_EQ(got->num_channels(), want->num_channels()) << where;
    if (got->num_channels() != want->num_channels()) continue;
    for (size_t c = 0; c < want->num_channels(); ++c) {
      EXPECT_TRUE(SameBits(got->channel(c), want->channel(c)))
          << where << ", channel " << c;
    }
  }
  return want.ok();
}

// n samples per channel of noise + DC offset + mains hum at fs / 20
// (50 Hz at 1 kHz), a different mix per channel.
EmgRecording MakeRaw(size_t channels, size_t n, double fs, Rng* rng) {
  std::vector<Muscle> muscles;
  std::vector<std::vector<double>> data(channels, std::vector<double>(n));
  for (size_t c = 0; c < channels; ++c) {
    muscles.push_back(static_cast<Muscle>(
        c % static_cast<size_t>(Muscle::kNumMuscles)));
    const double offset = rng->Gaussian(0.0, 1e-5);
    const double hum = rng->Uniform(0.0, 3e-5);
    for (size_t i = 0; i < n; ++i) {
      data[c][i] = offset + rng->Gaussian(0.0, 5e-5) +
                   hum * std::sin(2.0 * M_PI * i / 20.0);
    }
  }
  return *EmgRecording::Create(std::move(muscles), std::move(data), fs);
}

TEST(ConditioningOracleTest, MatchesPerChannelChainOnEveryBackend) {
  struct Rates {
    double fs_in;
    double fs_out;
  };
  Rng rng(2024);
  for (const Rates rates :
       {Rates{1000.0, 120.0}, Rates{1000.0, 1000.0}, Rates{10.0, 20.0}}) {
    for (const size_t channels : {1u, 2u, 3u, 4u, 5u, 8u}) {
      for (const size_t n : {1u, 2u, 3u, 257u, 258u, 513u, 2716u}) {
        const EmgRecording raw = MakeRaw(channels, n, rates.fs_in, &rng);
        for (const bool notch : {false, true}) {
          for (const bool skip_bandpass : {false, true}) {
            AcquisitionOptions options;
            // The paper's 20–450 Hz band and a 50 Hz notch at 1 kHz,
            // scaled with the raw rate.
            options.band_low_hz = 0.02 * rates.fs_in;
            options.band_high_hz = 0.45 * rates.fs_in;
            options.output_rate_hz = rates.fs_out;
            options.notch_hz = notch ? 0.05 * rates.fs_in : 0.0;
            options.skip_bandpass = skip_bandpass;
            const std::string what =
                std::to_string(rates.fs_in) + " -> " +
                std::to_string(rates.fs_out) + " Hz, " +
                std::to_string(channels) + " channels, n=" +
                std::to_string(n) + (notch ? ", notch" : "") +
                (skip_bandpass ? ", skip_bandpass" : "");
            EXPECT_TRUE(ExpectMatchesReference(raw, options, what)) << what;
            if (HasFailure()) return;
          }
        }
      }
    }
  }
}

// ParserRobustnessTest.EmgCsvSurvivesMutations' corpus, rebuilt here:
// the same capture, mutator and seed. Every mutant the parser accepts
// is conditioned with the paper's chain, and again with a notch.
TEST(ConditioningOracleTest, MatchesOnParserMutationCorpus) {
  DatasetOptions opts;
  opts.limb = Limb::kRightHand;
  opts.trials_per_class = 1;
  opts.seed = 31;
  auto data = GenerateDataset(opts);
  ASSERT_TRUE(data.ok());
  const std::string text = WriteEmgCsv((*data)[0].emg_raw);
  Rng rng(200);
  size_t conditioned = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::string mutated =
        Mutate(text, 1 + static_cast<int>(rng.NextBelow(8)), &rng);
    const auto parsed = ParseEmgCsv(mutated);
    if (!parsed.ok()) continue;
    AcquisitionOptions options;
    conditioned += ExpectMatchesReference(*parsed, options,
                                          "mutant " + std::to_string(trial));
    options.notch_hz = 50.0;
    conditioned += ExpectMatchesReference(
        *parsed, options, "mutant " + std::to_string(trial) + ", notch");
    if (HasFailure()) return;
  }
  // The sweep must compare real outputs, not only matching errors (33 of
  // the 300 mutants parse and condition, each with and without notch).
  EXPECT_GT(conditioned, 0u);
}

}  // namespace
}  // namespace mocemg
