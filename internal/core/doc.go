// Package core ties the reproduction together into the application the
// paper targets: spectrum sensing for Cognitive Radio on the tiled SoC.
//
// One Run executes the full chain exactly as the platform would:
// condition and quantise the sampled band to the Montium's Q15 datapath,
// run the 4-tile platform simulation (FFT → reshuffle → init → folded MAC
// loop per block, tiles exchanging chain values over the NoC), read the
// DSCF out of the tiles' accumulator memories, apply the configured
// decision layer (Config.Decider) to that hardware-produced surface, and
// convert the
// measured cycle counts into the paper's evaluation figures (time per
// integration step, analysed bandwidth, area, power).
//
// Config.Estimator swaps the platform for a software reference
// estimator (scf.Direct, fam.FAM, fam.SSCA): the decision layer is
// unchanged, but the surface comes from the estimator in float64 and
// the run reports estimator work counts instead of hardware cycles.
package core
