package exec

import (
	"testing"

	"repro/internal/vector"
)

// trackCursorBatches installs the cursor hook (vector.CursorHeld) until the
// test ends and returns a reader of the most batches cursors have held at
// once.
func trackCursorBatches(t *testing.T) (peak func() int) {
	held, most := 0, 0
	vector.CursorHeld = func(delta int) {
		held += delta
		most = max(most, held)
	}
	t.Cleanup(func() { vector.CursorHeld = nil })
	return func() int { return most }
}
