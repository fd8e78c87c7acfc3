// Package fam implements the time-smoothing spectral-correlation
// estimators — the FFT Accumulation Method (FAM) and the Strip Spectral
// Correlation Analyzer (SSCA) — behind the scf.Estimator interface, so
// detectors and pipelines can swap them for the paper's direct DSCF
// without touching the decision layer.
//
// Both estimators share the same front end: a K-point channelizer that
// hops along the input, applies an analysis window, computes the FFT of
// each hop and downconverts every channel to baseband with the
// absolute-time phase reference e^{-j2π·v·start/K} (the complex
// demodulate x_v(n) of the classical derivation; this is the same
// rotation the direct method's expression 2 applies). They differ in the
// back end:
//
//   - FAM (hop L, typically K/4): for every surface cell (f, a) the
//     product sequence x_{f+a}(n)·conj(x_{f-a}(n)) over the P channelizer
//     hops is passed through a P-point second FFT. Bin q of that FFT
//     estimates the SCF at cycle frequency α = 2a/K + q/(P·L); bin 0 is
//     exactly the grid cell the rest of the system consumes, and the
//     remaining bins refine α to a resolution of 1/(P·L) — far finer than
//     the direct method's 2/K.
//   - SSCA (hop 1): each channel's demodulate is multiplied against the
//     conjugate of the full-rate input, and one long N-point strip FFT
//     per channel covers a diagonal strip of the (f, α) plane: channel k,
//     bin q estimates the SCF at f = k/(2K) - q/(2N), α = k/K + q/N.
//     Surface cell (f, a) is channel k = f+a, bin q = N·(a-f)/K. The grid
//     reads only every (N/K)-th bin, and those bins are the K-point DFT
//     of the strip folded modulo K, so the code keeps a K-length fold per
//     strip and runs one K-point FFT per strip.
//
// Complexity (complex multiplications, reported in Stats): the direct
// DSCF spends Blocks·(2M-1)² on products — the paper's "16× the FFT"
// figure. FAM spends P·K on downconversion plus, per cell, P products
// and a P-point FFT. SSCA spends N·(K/2)·log2 K on the sliding
// channelizer and (N/2)·log2 N per strip; its advantage is resolution —
// N cycle-frequency points per strip for one FFT — rather than raw cost
// on the small (2M-1)² grid. Stats always report this canonical model;
// the implementation itself shortcuts where the algebra allows (FAM
// evaluates each cell's bin 0 as an O(P) dot product and mirrors the
// α < 0 half-plane by exact Hermitian symmetry; SSCA runs its channelizer
// as a sliding DFT, one complex multiply-add per addressed strip per hop
// plus two rotations per hop for each cosine term of a window, with N/K
// anchoring K-point FFTs in place of N, and replaces each N-point strip
// FFT with a modulo-K fold and a K-point FFT) — see the README's
// model-vs-measured note.
//
// Every estimator here streams through scf.NewSpanAccumulator with its
// kernel as the fold, and every batch estimate is that fold:
// FAM.Estimate, SSCA.Estimate and both Q15 estimators run it straight
// over the input (see accumulator.go and q15accumulator.go), with the
// fold's working set borrowed from shared free lists, so batch and
// streaming agree bit for bit and an estimate allocates little more than
// the surface it returns. One smoothing rule serves the float and Q15
// twins. An accumulator only buffers; Snapshot runs Estimate's fold over
// the buffer into the surface it returns (the Q15 fold quantises the
// span it reads, as batch Estimate does), and nothing is kept between
// pushes but the buffer. NewAccumulator buffers every sample since Reset
// (capped at N+K-1 for a fixed-N SSCA); NewWindowAccumulator caps the
// buffer at the span its window's estimate reads, so after n samples in
// any chunking its Snapshot is Estimate(x[:min(n, W)]) bit for bit. The
// golden, digest and chunking tests pin the bits of the fold itself.
//
// Estimates agree with the direct method at grid points up to the
// smoothing window: cross-check tests assert all three estimators locate
// the same strongest cyclic feature on a BPSK band. Unlike the direct
// method, the SSCA surface is only approximately Hermitian
// (S_f^{-a} ≈ conj(S_f^a)): cells at ±a are estimated from different
// channel/bin combinations, so they differ at estimation-noise level.
package fam
