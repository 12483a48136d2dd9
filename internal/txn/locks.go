// Package txn implements Vertica's transaction machinery (paper §5): the
// epoch-based logical clock with Last Good Epoch and Ancient History Mark
// tracking, and the analytic-workload table locking model with the seven
// lock modes and the compatibility and conversion matrices of Tables 1 and 2.
package txn

import "fmt"

// LockMode is one of Vertica's seven table lock modes (paper §5).
type LockMode uint8

const (
	// NoLock is the absence of a lock (zero value).
	NoLock LockMode = iota
	// S (Shared): while held, prevents concurrent modification of the
	// table.
	S
	// I (Insert): required to insert data into a table. Compatible with
	// itself, enabling simultaneous bulk loads — "critical to maintain high
	// ingest rates and parallel loads yet still offer transactional
	// semantics".
	I
	// SI (SharedInsert): required for read and insert, but not update or
	// delete.
	SI
	// X (eXclusive): required for deletes and updates.
	X
	// T (Tuple mover): required for certain tuple mover operations;
	// compatible with every lock except X.
	T
	// U (Usage): required for parts of moveout and mergeout operations.
	U
	// O (Owner): required for significant DDL such as dropping partitions
	// and adding columns.
	O
)

// Modes lists the seven real modes in the paper's table order.
var Modes = []LockMode{S, I, SI, X, T, U, O}

// String returns the paper's abbreviation for the mode.
func (m LockMode) String() string {
	switch m {
	case S:
		return "S"
	case I:
		return "I"
	case SI:
		return "SI"
	case X:
		return "X"
	case T:
		return "T"
	case U:
		return "U"
	case O:
		return "O"
	case NoLock:
		return "-"
	default:
		return fmt.Sprintf("LockMode(%d)", m)
	}
}

// compat is Table 1 (lock compatibility): compat[requested][granted] is true
// when the requested mode can be granted alongside an existing granted mode.
var compat = map[LockMode]map[LockMode]bool{
	S:  {S: true, I: false, SI: false, X: false, T: true, U: true, O: false},
	I:  {S: false, I: true, SI: false, X: false, T: true, U: true, O: false},
	SI: {S: false, I: false, SI: false, X: false, T: true, U: true, O: false},
	X:  {S: false, I: false, SI: false, X: false, T: false, U: true, O: false},
	T:  {S: true, I: true, SI: true, X: false, T: true, U: true, O: false},
	U:  {S: true, I: true, SI: true, X: true, T: true, U: true, O: false},
	O:  {S: false, I: false, SI: false, X: false, T: false, U: false, O: false},
}

// Compatible reports whether a lock requested in mode req can coexist with a
// lock already granted in mode granted (paper Table 1).
func Compatible(req, granted LockMode) bool {
	if req == NoLock || granted == NoLock {
		return true
	}
	return compat[req][granted]
}

// convert is Table 2 (lock conversion): convert[requested][granted] is the
// mode a transaction holds after requesting req while already holding
// granted.
var convert = map[LockMode]map[LockMode]LockMode{
	S:  {S: S, I: SI, SI: SI, X: X, T: S, U: S, O: O},
	I:  {S: SI, I: I, SI: SI, X: X, T: I, U: I, O: O},
	SI: {S: SI, I: SI, SI: SI, X: X, T: SI, U: SI, O: O},
	X:  {S: X, I: X, SI: X, X: X, T: X, U: X, O: O},
	T:  {S: S, I: I, SI: SI, X: X, T: T, U: T, O: O},
	U:  {S: S, I: I, SI: SI, X: X, T: T, U: U, O: O},
	O:  {S: O, I: O, SI: O, X: O, T: O, U: O, O: O},
}

// Convert returns the lock mode held after a transaction holding granted
// requests req on the same table (paper Table 2).
func Convert(req, granted LockMode) LockMode {
	if granted == NoLock {
		return req
	}
	if req == NoLock {
		return granted
	}
	return convert[req][granted]
}
