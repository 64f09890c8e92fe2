package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"photodtn/internal/coverage"
	"photodtn/internal/faults"
	"photodtn/internal/model"
	"photodtn/internal/obs"
)

// World is the simulation state a Scheme operates on: the PoI map, per-node
// storages, the command center's received collection, and the clock.
type World struct {
	// Map is the PoI coverage map of the crowdsourcing task.
	Map *coverage.Map
	// Rand is the run's deterministic RNG; schemes needing randomness must
	// use it (never the global source).
	Rand *rand.Rand

	// ctx is the run's context (never nil once the engine built the world);
	// schemes observe it through Context for long per-contact computations.
	ctx context.Context

	now      float64
	storages []*Storage // index 1..numNodes; index 0 unused (CC is unbounded)
	ccPhotos model.PhotoList
	ccSet    map[model.PhotoID]bool
	ccState  *coverage.State

	// faults is the run's fault model; nil when no faults are configured
	// (the engine then behaves bit-identically to a fault-free build).
	faults *faults.Model

	// obsv is the run's observer; nil when observability is disabled. The
	// cached counters below are nil in that case too, so the hot paths pay
	// only a nil check.
	obsv        *obs.Observer
	cDelivered  *obs.Counter
	cTransfers  *obs.Counter
	cDuplicates *obs.Counter
	cAborts     *obs.Counter
	cCrashes    *obs.Counter

	// Aggregate transfer statistics.
	transferredBytes  int64
	transferredPhotos int64

	// Fault metrics.
	nodeCrashes       int64
	photosLostToCrash int64
	abortedTransfers  int64
	pendingCrashes    []float64 // crash times awaiting the next CC delivery
	recoverySum       float64
	recovered         int64
}

// newWorld builds a world with numNodes participant storages of the given
// capacity.
func newWorld(m *coverage.Map, numNodes int, capacity int64, rng *rand.Rand) *World {
	w := &World{
		Map:      m,
		Rand:     rng,
		storages: make([]*Storage, numNodes+1),
		ccSet:    make(map[model.PhotoID]bool),
		ccState:  m.NewState(),
	}
	for i := 1; i <= numNodes; i++ {
		w.storages[i] = NewStorage(capacity)
	}
	return w
}

// setObserver installs the run's observer and caches the engine-level
// counters (all remain nil — no-ops — when o is nil).
func (w *World) setObserver(o *obs.Observer) {
	w.obsv = o
	w.cDelivered = o.Counter("sim.photos_delivered")
	w.cTransfers = o.Counter("sim.transfers")
	w.cDuplicates = o.Counter("sim.deliveries_duplicate")
	w.cAborts = o.Counter("sim.sessions_aborted")
	w.cCrashes = o.Counter("sim.node_crashes")
}

// Obs returns the run's observer; nil when observability is disabled.
// Schemes use it to register their own metrics and emit trace events — a
// nil observer accepts every call and does nothing.
func (w *World) Obs() *obs.Observer { return w.obsv }

// Context returns the run's context. Schemes doing long per-contact work
// (Monte Carlo sampling, large gain scans) may poll it to abandon work the
// caller no longer wants; the engine itself polls between events, so most
// schemes never need to. Never nil.
func (w *World) Context() context.Context {
	if w.ctx == nil {
		return context.Background() // worlds built directly by tests
	}
	return w.ctx
}

// Now returns the current simulation time in seconds.
func (w *World) Now() float64 { return w.now }

// NumNodes returns the number of participant nodes.
func (w *World) NumNodes() int { return len(w.storages) - 1 }

// Storage returns the storage of a participant node. It panics for the
// command center (which has no capacity-bound storage) or out-of-range IDs;
// that is a programming error in a scheme, not a runtime condition.
func (w *World) Storage(n model.NodeID) *Storage {
	if n.IsCommandCenter() || int(n) >= len(w.storages) || n < 0 {
		panic(fmt.Sprintf("sim: no storage for node %v", n))
	}
	return w.storages[n]
}

// CCPhotos returns the photos the command center has received so far. The
// returned slice must not be mutated.
func (w *World) CCPhotos() model.PhotoList { return w.ccPhotos }

// CCHas reports whether the command center already received the photo.
func (w *World) CCHas(id model.PhotoID) bool { return w.ccSet[id] }

// CCCoverage returns the command center's current photo coverage — the
// objective the whole system maximises.
func (w *World) CCCoverage() coverage.Coverage { return w.ccState.Coverage() }

// DeliveredCount returns the number of distinct photos delivered.
func (w *World) DeliveredCount() int { return len(w.ccPhotos) }

// deliver hands a photo to the command center and reports whether it was
// new. Duplicates are ignored.
func (w *World) deliver(p model.Photo) bool {
	if w.ccSet[p.ID] {
		w.cDuplicates.Inc()
		return false
	}
	w.ccSet[p.ID] = true
	w.ccPhotos = append(w.ccPhotos, p)
	w.ccState.AddPhoto(p)
	// The first delivery after a crash resolves the recovery clock of
	// every crash still pending.
	if len(w.pendingCrashes) > 0 {
		for _, ct := range w.pendingCrashes {
			w.recoverySum += w.now - ct
		}
		w.recovered += int64(len(w.pendingCrashes))
		w.pendingCrashes = w.pendingCrashes[:0]
	}
	return true
}

// crash wipes a node's storage (the photos are lost with the device) and
// starts the recovery clock. The scheme's soft state — metadata caches,
// PROPHET tables — survives on *other* nodes and goes stale, which is
// exactly the disruption the metadata validity rule (§III-B) must absorb.
func (w *World) crash(n model.NodeID) {
	st := w.storages[n]
	lost := st.Len()
	w.nodeCrashes++
	w.photosLostToCrash += int64(lost)
	_ = st.ReplaceAll(nil) // always fits
	w.pendingCrashes = append(w.pendingCrashes, w.now)
	w.cCrashes.Inc()
	if w.obsv != nil {
		w.obsv.Emit(obs.Event{
			Time: w.now, Kind: obs.EvNodeCrash,
			A: int32(n), B: obs.NoNode, Photo: obs.NoPhoto, Value: float64(lost),
		})
	}
}

// Session errors.
var (
	// ErrBudget is returned when the contact's transfer budget is
	// exhausted; the in-flight photo is discarded per §III-D.
	ErrBudget = errors.New("sim: contact budget exhausted")
	// ErrAborted is returned when the fault model loses or corrupts a
	// frame mid-transfer: the session dies, the in-flight photo is
	// discarded (§III-D), and no further transfer can succeed.
	ErrAborted = errors.New("sim: session aborted mid-transfer")
)

// Session is one contact between two nodes (one of which may be the command
// center), with a byte budget derived from the contact duration and the
// radio bandwidth.
type Session struct {
	w *World
	// A and B are the contact endpoints.
	A model.NodeID
	B model.NodeID
	// Time is the contact start time.
	Time float64

	budget    int64
	unlimited bool
	// key identifies the contact for fault-model frame decisions; it is
	// only set when a fault model is active.
	key uint64
	// aborted is set when a frame loss kills the session; every later
	// transfer fails with ErrAborted.
	aborted bool
}

// World returns the world the session belongs to.
func (s *Session) World() *World { return s.w }

// Remaining returns the remaining transfer budget in bytes; it is
// meaningless when the session is unlimited.
func (s *Session) Remaining() int64 { return s.budget }

// Exhausted reports whether no further transfer can succeed.
func (s *Session) Exhausted() bool { return s.aborted || (!s.unlimited && s.budget <= 0) }

// Aborted reports whether the session died mid-transfer to a fault.
func (s *Session) Aborted() bool { return s.aborted }

// Peer returns the other endpoint of the session.
func (s *Session) Peer(n model.NodeID) model.NodeID {
	if n == s.A {
		return s.B
	}
	return s.A
}

// Transfer moves a photo from one endpoint to the other, debiting the
// budget. Transfers to the command center deliver the photo. Transfers to a
// node require free space (ErrNoSpace otherwise — the scheme must evict
// first). When the budget cannot cover the photo, the remaining budget is
// consumed by the aborted partial transfer and ErrBudget is returned.
// When the fault model loses a frame mid-transfer, the session aborts with
// ErrAborted: the in-flight photo is discarded, no storage or accounting
// changes, and every subsequent transfer on the session fails too.
func (s *Session) Transfer(to model.NodeID, p model.Photo) error {
	if s.aborted {
		return fmt.Errorf("%w: photo %v", ErrAborted, p.ID)
	}
	if !to.IsCommandCenter() {
		// Receiver-side checks come first: a transfer that could never
		// start must not consume budget.
		st := s.w.Storage(to)
		if st.Has(p.ID) {
			return fmt.Errorf("%w: %v", ErrDuplicate, p.ID)
		}
		if p.Size > st.Free() {
			return fmt.Errorf("%w: photo %v needs %d bytes at %v", ErrNoSpace, p.ID, p.Size, to)
		}
	}
	if fm := s.w.faults; fm != nil && fm.FrameLost(s.key, p.ID) {
		s.aborted = true
		s.budget = 0
		s.w.abortedTransfers++
		s.w.cAborts.Inc()
		if s.w.obsv != nil {
			s.w.obsv.Emit(obs.Event{
				Time: s.w.now, Kind: obs.EvSessionAbort,
				A: int32(s.A), B: int32(s.B), Photo: int64(p.ID),
			})
		}
		return fmt.Errorf("%w: photo %v lost in flight", ErrAborted, p.ID)
	}
	if !s.unlimited && p.Size > s.budget {
		s.budget = 0
		return fmt.Errorf("%w: photo %v (%d bytes)", ErrBudget, p.ID, p.Size)
	}
	s.debit(p.Size)
	if to.IsCommandCenter() {
		if s.w.deliver(p) {
			s.w.cDelivered.Inc()
			if s.w.obsv != nil {
				s.w.obsv.Emit(obs.Event{
					Time: s.w.now, Kind: obs.EvPhotoDelivered,
					A: int32(s.Peer(to)), B: 0, Photo: int64(p.ID), Value: 1,
				})
			}
		}
		return nil
	}
	if err := s.w.Storage(to).Add(p); err != nil {
		return err // unreachable given the checks above, but stay honest
	}
	return nil
}

func (s *Session) debit(n int64) {
	if !s.unlimited {
		s.budget -= n
	}
	s.w.transferredBytes += n
	s.w.transferredPhotos++
	s.w.cTransfers.Inc()
}
