package sim

import (
	"fmt"

	"github.com/icn-gaming/gcopss/internal/trace"
)

// Runner is one replay engine of the paper's architecture comparison: a
// configuration that can validate itself and replay a movement-trace update
// stream over an Env. GCOPSSConfig, HybridConfig and ServerConfig implement
// it, so experiment drivers can treat the three architectures uniformly —
// same Run(env, updates) signature, same validation gate, same Result shape.
//
// Run performs the shared validation itself before replaying.
type Runner interface {
	// Name identifies the engine in error messages and reports
	// ("gcopss", "hybrid", "ipserver").
	Name() string
	// Validate checks the configuration without replaying anything.
	Validate() error
	// Run replays the update stream over env and aggregates the results.
	Run(env *Env, updates []trace.Update) (*Result, error)
}

// precheck is the shared validation every Run method front-loads: a non-nil
// environment and a Validate-clean configuration, with errors prefixed by
// the engine name.
func precheck(env *Env, r Runner) error {
	if env == nil {
		return fmt.Errorf("sim: %s: nil environment", r.Name())
	}
	if err := r.Validate(); err != nil {
		return fmt.Errorf("sim: %s: %w", r.Name(), err)
	}
	return nil
}
