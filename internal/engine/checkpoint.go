package engine

// Checkpoint/resume: the engine-level face of the core snapshot protocol
// (internal/core/snapshot.go). A scenario that carries a CheckpointConfig
// periodically serializes its complete kernel-resident state — signal
// values, master/arbiter/decoder FSM state, analyzer energy accumulators
// and fault-PRNG stream positions — at the settled chunk boundaries of
// core.RunContextStepped, and can be restarted from the latest snapshot
// instead of cycle 0. The golden suites prove a resumed run is
// Float64bits-identical to an uninterrupted one on every eligible
// backend, which is what lets the serving layer treat "resume from
// checkpoint" and "run from scratch" as the same result.

// CheckpointConfig enables crash-safe snapshots for one scenario. It is
// an execution detail exactly like the Backend hint: it never changes
// what a scenario computes, so it is excluded from CanonicalKey and a
// cached result still answers a checkpoint-requesting scenario.
type CheckpointConfig struct {
	// Every is the minimum number of cycles between snapshots; the engine
	// clamps it up to the run-chunk size. Zero means "every chunk".
	Every uint64
	// Save, when non-nil, persists one serialized snapshot taken at the
	// given absolute cycle. A Save error aborts the run (callers that
	// want best-effort persistence swallow errors themselves and return
	// nil).
	Save func(cycle uint64, snapshot []byte) error
	// Resume, when non-empty, is a serialized snapshot (a prior Save
	// payload) to restore before running; the scenario then executes only
	// the cycles past the snapshot. The snapshot must come from the same
	// canonical scenario — restore verifies shape and fails otherwise.
	Resume []byte
}
