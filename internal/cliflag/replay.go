package cliflag

import (
	"flag"

	"overlapsim/internal/sweep"
)

// Replay collects the replay-engine performance knob shared by every
// sweep-running command (sweep, campaign, worker, serve). It is a pure
// performance switch: results are identical for either setting.
type Replay struct {
	// Batch routes platform-axis replays through one warm replayer.
	Batch bool
}

// RegisterReplay adds -replay-batch to fs.
func RegisterReplay(fs *flag.FlagSet) *Replay {
	r := &Replay{}
	fs.BoolVar(&r.Batch, "replay-batch", true,
		"batch platform-axis replays through one warm replayer")
	return r
}

// Apply configures a sweep runner with the selected knob.
func (r *Replay) Apply(run *sweep.Runner) {
	run.DisableBatch = !r.Batch
}
