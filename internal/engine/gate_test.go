package engine

import (
	"testing"

	"snappif/internal/sim"
)

// TestGateDaemonName pins the gate daemon's diagnostic name: the wrapped
// daemon's, marked as gated.
func TestGateDaemonName(t *testing.T) {
	d := &gateDaemon{inner: sim.Synchronous{}}
	if got := d.Name(); got != "gate(synchronous)" {
		t.Fatalf("Name() = %q", got)
	}
}
