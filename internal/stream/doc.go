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
//     ring, and Push grows it by doubling (at least 4096 samples,
//     at most the limit) only when a chunk does not fit. It never shrinks,
//     so its memory follows the channel's peak backlog, and Push
//     allocates only when the ring grows; otherwise it copies into it,
//   - an scf.Accumulator holding that channel's incremental estimator
//     state (direct DSCF, FAM, or SSCA — anything implementing
//     scf.StreamingEstimator), and
//   - drop/decision accounting.
//
// A bounded worker pool drains the rings: a channel with pending samples
// is enqueued at most once on the work queue, a worker claims it, feeds
// the ring contents into the accumulator in arrival order, and — every
// Config.SnapshotSamples samples — takes a surface snapshot and applies
// the decision layer from internal/detect (Config.Decider, or the
// self-calibrating CFAR by default). Because
// one channel is drained by at most one worker at a time, accumulator
// access is serialised without per-sample locking, and because
// accumulator snapshots are bit-identical to the batch estimators
// (scf.Accumulator's contract), a streaming decision equals the batch
// decision over the same window.
//
// # Overload behaviour
//
// When producers outrun the pool, each ring fills. The default policy is
// to drop the excess newest samples and count them (Stats.SamplesDropped
// and per-channel ChannelStats.SamplesDropped) — sensing keeps degrading
// gracefully under overload instead of stalling the radio front end.
// With Config.Block set, Push instead applies backpressure: it blocks
// until the pool frees ring space (the mode batch jobs and benchmarks
// use, where every sample must be processed).
//
// # Windowed vs cumulative estimation
//
// By default every decision covers its own window: the accumulator is
// reset after each snapshot, so a licensed user appearing in the band
// shows up in the next window's decision, bounded memory for all
// estimators. With Config.Cumulative the accumulator keeps integrating
// across snapshots — the variance of the estimate keeps shrinking, the
// mode used for the streaming-equals-batch golden tests and for
// one-shot captures fed incrementally.
package stream
