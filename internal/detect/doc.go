// Package detect implements the spectrum-sensing decision layer the
// paper's introduction motivates: given sampled signal blocks, decide
// whether a licensed transmission is present.
//
// Three detectors are provided, matching the alternatives of the paper's
// references:
//
//   - EnergyDetector — the radiometer baseline of [7] (Cabric, Mishra,
//     Brodersen): thresholds the normalised received energy. Simple and
//     optimal for fully unknown signals under exactly known noise power,
//     but it collapses under noise-level uncertainty, which is the reason
//     the paper pursues CFD.
//   - CFDDetector — blind cyclostationary feature detection ([2],
//     Enserink & Cochran): computes the DSCF and thresholds the largest
//     cycle-frequency profile value away from a = 0, normalised by the
//     a = 0 (PSD) row. Noise is not cyclostationary, so the statistic is
//     self-normalising and robust to noise-level uncertainty.
//   - KnownCycleDetector — the single-correlator detector of [8] (Weber &
//     Faye, real-time cyclostationary RFI detection): like CFDDetector but
//     evaluated at one known cycle frequency, the situation the paper
//     notes is typical in radio astronomy but not in Cognitive Radio.
//
// Statistics can be computed from raw samples (the Detector interface) or
// directly from an existing scf.Surface — the latter is what the
// tiled-SoC pipeline uses, so the decision operates on the hardware's own
// DSCF output.
//
// Monte-Carlo helpers calibrate a threshold at a target false-alarm rate
// (CalibrateThreshold) and measure Pd and Pfa at it (PdAtThreshold); the
// Pd-vs-SNR sweep of experiment E13 (cmd/paper) runs the pair per SNR.
package detect
