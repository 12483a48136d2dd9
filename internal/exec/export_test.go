package exec

import "testing"

// trackCursorBatches installs the cursor hook (sorted.go) until the test
// ends and returns a reader of the most batches cursors have held at once.
func trackCursorBatches(t *testing.T) (peak func() int) {
	held, most := 0, 0
	cursorHeld = func(delta int) {
		held += delta
		most = max(most, held)
	}
	t.Cleanup(func() { cursorHeld = nil })
	return func() int { return most }
}
