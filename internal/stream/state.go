package stream

import (
	"fmt"
	"math"

	"pfg/internal/kernel"
	"pfg/internal/ws"
)

// State is the complete restorable state of an Engine: every field a
// checkpoint must carry so that an engine rebuilt from it is bit-identical
// to the original — the very next Push, Rebuild, and CopyState produce the
// same bits an uncrashed engine would have. It is the boundary between the
// engine and the durability layer (internal/ckpt): the engine owns the
// invariants, ckpt owns the wire form.
//
// The slices returned by Engine.State are views of the engine's live
// buffers, valid only until the next writer call (Push/Rebuild/Release);
// serializers must finish with them under the same lock discipline that
// protects CopyState. NewFromState takes ownership of the given slices: the
// restored engine runs on them, so the caller must not reuse them.
//
// Dirty is not part of the state: it is derivable (the engine sets it
// exactly when a slide has happened since the last exact state, i.e.
// Slides > 0), so a checkpoint cannot encode an inconsistent combination.
// Likewise the magnitude bound is reconstructed, not stored.
type State struct {
	N, Window    int
	RebuildEvery int

	Count  int
	Head   int
	Slides int
	Gen    uint64

	// Ring is window×n sample-major, G the n×n upper band, GCur the fill
	// phase's current-panel band (non-nil exactly while a multi-panel window
	// is filling), Sums the n rolling sums.
	Ring []float64
	G    []float64
	GCur []float64
	Sums []float64
}

// needGCur reports whether an engine of this shape carries a current-panel
// band: multi-panel windows allocate it at creation and release it when the
// fill completes.
func needGCur(window, count int) bool {
	return window > kernel.PanelLen && count < window
}

// State returns the engine's restorable state as views of its live buffers
// (see the State type for the ownership contract). Like CopyState it cannot
// fail: no engine method leaves the band half-applied.
func (e *Engine) State() State {
	return State{
		N:            e.n,
		Window:       e.window,
		RebuildEvery: e.rebuildEvery,
		Count:        e.count,
		Head:         e.head,
		Slides:       e.slides,
		Gen:          e.gen,
		Ring:         e.ring,
		G:            e.g,
		GCur:         e.gCur,
		Sums:         e.s,
	}
}

// NewFromState reconstructs an engine from a State. The engine adopts the
// state's Ring, G, GCur and Sums as its long-lived buffers instead of
// copying them, so a restore holds the state once; the caller must not read
// or write those slices afterwards, and w (which the caller must keep alive
// alongside the engine) receives them when the engine is released. The
// state is validated against every structural invariant an engine
// maintains — shape, counter ranges, buffer lengths, the gCur split, ring
// finiteness and the overflow-safe magnitude bound — so a checkpoint
// decoder can hand over untrusted contents and rely on a non-nil error
// instead of a later panic or a poisoned band. On error nothing is adopted.
// On success the restored engine is bit-identical to the one State was
// read from.
func NewFromState(st State, w *ws.Workspace) (*Engine, error) {
	if err := st.validate(); err != nil {
		return nil, err
	}
	return &Engine{
		n:            st.N,
		window:       st.Window,
		rebuildEvery: st.RebuildEvery,
		count:        st.Count,
		head:         st.Head,
		slides:       st.Slides,
		gen:          st.Gen,
		dirty:        st.Slides > 0,
		ring:         st.Ring,
		g:            st.G,
		gCur:         st.GCur,
		s:            st.Sums,
		maxMag:       maxSampleMagnitude(st.Window),
		w:            w,
	}, nil
}

// validate checks every structural invariant a restored engine relies on.
func (st State) validate() error {
	if st.N < 1 {
		return fmt.Errorf("stream: state has %d series, need at least 1", st.N)
	}
	if st.Window < 2 {
		return fmt.Errorf("stream: state window %d < 2", st.Window)
	}
	if st.Count < 0 || st.Count > st.Window {
		return fmt.Errorf("stream: state count %d outside [0,%d]", st.Count, st.Window)
	}
	if st.Head < 0 || st.Head >= st.Window {
		return fmt.Errorf("stream: state head %d outside [0,%d)", st.Head, st.Window)
	}
	if st.Count < st.Window && st.Head != st.Count {
		// While filling, the next free slot is the fill position; any other
		// combination cannot arise from a sequence of pushes.
		return fmt.Errorf("stream: state head %d does not match fill count %d", st.Head, st.Count)
	}
	if st.Slides < 0 {
		return fmt.Errorf("stream: state slides %d < 0", st.Slides)
	}
	if st.Count < st.Window && st.Slides != 0 {
		return fmt.Errorf("stream: state reports %d slides with an unfilled window", st.Slides)
	}
	if len(st.Sums) != st.N {
		return fmt.Errorf("stream: state sums have %d entries, want n=%d", len(st.Sums), st.N)
	}
	for i, v := range st.Sums {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: state sum %d is non-finite", i)
		}
	}
	if len(st.Ring) != st.Window*st.N {
		return fmt.Errorf("stream: state ring has %d entries, want window×n=%d", len(st.Ring), st.Window*st.N)
	}
	if len(st.G) != st.N*st.N {
		return fmt.Errorf("stream: state band has %d entries, want n²=%d", len(st.G), st.N*st.N)
	}
	if need := needGCur(st.Window, st.Count); need != (st.GCur != nil) {
		return fmt.Errorf("stream: state current-panel band present=%v, want %v for window %d at count %d",
			st.GCur != nil, need, st.Window, st.Count)
	}
	if st.GCur != nil && len(st.GCur) != st.N*st.N {
		return fmt.Errorf("stream: state current-panel band has %d entries, want n²=%d", len(st.GCur), st.N*st.N)
	}
	if err := validateRing(st.Ring, st.N, st.Window, st.Count, st.Head, maxSampleMagnitude(st.Window)); err != nil {
		return err
	}
	if err := finite("band", st.G); err != nil {
		return err
	}
	if st.GCur != nil {
		if err := finite("current-panel band", st.GCur); err != nil {
			return err
		}
	}
	return nil
}

// validateRing checks the occupied ring slots: finite values within the
// overflow-safe admission bound (unoccupied slots are dead storage and may
// hold anything — typically zeros).
func validateRing(ring []float64, n, window, count, head int, maxMag float64) error {
	start := head - count
	if start < 0 {
		start += window
	}
	for k := 0; k < count; k++ {
		slot := start + k
		if slot >= window {
			slot -= window
		}
		for i, v := range ring[slot*n : slot*n+n] {
			if math.IsNaN(v) || math.IsInf(v, 0) || v > maxMag || v < -maxMag {
				return fmt.Errorf("stream: state ring sample %d series %d (%g) is non-finite or exceeds the magnitude bound %g", k, i, v, maxMag)
			}
		}
	}
	return nil
}

func finite(name string, s []float64) error {
	for i, v := range s {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: state %s entry %d is non-finite", name, i)
		}
	}
	return nil
}
