package sim

import (
	"strings"
	"testing"
)

// The three replay engines expose one uniform seam: name, validation, run.
func TestRunnerNamesAndValidation(t *testing.T) {
	runners := []Runner{GCOPSSConfig{}, HybridConfig{}, ServerConfig{}}
	want := []string{"gcopss", "hybrid", "ipserver"}
	for i, r := range runners {
		if got := r.Name(); got != want[i] {
			t.Errorf("runner %d name = %q, want %q", i, got, want[i])
		}
		if err := r.Validate(); err == nil {
			t.Errorf("%s: zero-value config passed validation", r.Name())
		}
	}
}

func TestReplayRejectsNilEnv(t *testing.T) {
	_, err := HybridConfig{Groups: 1}.Run(nil, nil)
	if err == nil {
		t.Fatal("nil environment accepted")
	}
	if !strings.Contains(err.Error(), "hybrid") {
		t.Errorf("error %q does not name the engine", err)
	}
}

func TestRunnerErrorsCarryEngineName(t *testing.T) {
	env := testEnv(t, 50)
	if _, err := (ServerConfig{}).Run(env, nil); err == nil || !strings.Contains(err.Error(), "ipserver") {
		t.Errorf("server validation error %v does not name the engine", err)
	}
	if _, err := (GCOPSSConfig{}).Run(env, nil); err == nil || !strings.Contains(err.Error(), "gcopss") {
		t.Errorf("gcopss validation error %v does not name the engine", err)
	}
}
