// Package stream is the continuous sensing engine: it turns the
// one-shot estimators of internal/scf and internal/fam into a
// long-running, multi-channel monitoring service — the operational shape
// of the paper's Cognitive-Radio application, where an AAF node keeps
// watching many bands and reacts as occupancy changes.
//
// # Architecture
//
// An Engine owns a set of named channels. Each channel has
//
//   - a ring buffer producers push sampled chunks into. Config.RingSamples
//     is its capacity limit, not a reservation: a channel starts with no
//     ring, the first Push sizes it to its chunk, and a later Push grows
//     it by doubling (at most to the limit) only when a chunk does not
//     fit. It never shrinks, so its memory follows the channel's peak
//     backlog, and Push allocates only when the ring grows; otherwise it
//     copies into it. Samples a worker is feeding stay in the ring, and
//     count against the limit, until the feed completes,
//   - an scf.Accumulator holding that channel's incremental estimator
//     state (anything implementing scf.StreamingEstimator: the direct
//     DSCF, FAM, SSCA and the Q15 twins all stream through
//     scf.NewSpanAccumulator, which buffers samples and runs the batch
//     fold at each snapshot),
//   - for a decider that reads raw samples (dg, urriza), one window of
//     them, allocated at the channel's first sample, and
//   - drop/decision accounting, and a count of the bytes the channel
//     holds (ChannelStats.HeldBytes).
//
// A bounded worker pool drains the rings: a channel with pending samples
// is enqueued at most once on the work queue, a worker claims it, feeds
// the ring contents into the accumulator in arrival order, and — every
// Config.SnapshotSamples samples — folds the window and applies the
// decision layer from internal/detect (Config.Decider, or the
// self-calibrating CFAR by default). A worker has no buffer of its own:
// it takes the oldest contiguous unread segment of the ring under the
// channel's lock, feeds it to the accumulator in place with the lock
// released, and only then frees it and wakes a blocked producer. This
// is safe because a producer writes only into free space, and a ring
// that grows meanwhile copies the unread span, the segment included,
// and leaves the old array intact. Because
// one channel is drained by at most one worker at a time, accumulator
// access is serialised without per-sample locking, and because
// accumulator snapshots are bit-identical to the batch estimators
// (scf.Accumulator's contract), a streaming decision equals the batch
// decision over the same window.
//
// The decision reads the window's α-profile (scf.Profile): row sums for
// cfar and fixed, row peaks for the reported feature. When the
// accumulator folds straight into that profile (SnapshotProfile: the
// float FAM and SSCA) and the decider reads no more
// (detect.ProfileDecider) or reads only the raw samples (dg, urriza), no
// surface is built; the profile is borrowed for the decision, so a
// channel keeps none. Otherwise, as for the direct DSCF, the Q15
// estimators or a decorated accumulator or decider, the engine
// snapshots the surface and takes the profile from it, with the same
// bits.
//
// # Overload behaviour
//
// When producers outrun the pool, each ring fills. The default policy is
// to drop the excess newest samples and count them (Stats.SamplesDropped
// and per-channel ChannelStats.SamplesDropped) — sensing keeps degrading
// gracefully under overload instead of stalling the radio front end.
// With Config.Block set, Push instead applies backpressure: it blocks
// until the pool frees ring space (the mode batch jobs and benchmarks
// use, where every sample must be processed). Decisions overflow the
// same way: in drop mode a full Decisions buffer drops the newest
// decision and counts it (Stats.DecisionsDropped); with Block set the
// worker waits for the consumer, which stalls that channel's drain and,
// through its ring, its producer. Close frees a waiting worker.
//
// # Windowed estimation
//
// Every decision covers its own window, as the paper's detector
// integrates a fixed observation per decision: the accumulator is reset
// after each snapshot, so a licensed user appearing in the band shows up
// in the next window's decision, and memory stays bounded for all
// estimators. Channels bind their accumulator to the window
// (scf.AccumulatorFor): every streaming estimator buffers only the span
// of samples the window's estimate reads (the direct DSCF: the window's
// complete blocks) and folds it at the window's end, with fold scratch
// shared across channels, so between pushes a channel holds its span
// and no result. A window too short for the estimator keeps
// accumulating across boundaries, and the decision comes at the first
// boundary where the accumulator is Ready, over every sample since the
// last decision.
package stream
