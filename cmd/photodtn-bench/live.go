package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"photodtn"
	"photodtn/internal/coverage"
	"photodtn/internal/experiments"
	"photodtn/internal/geo"
	"photodtn/internal/guard"
	"photodtn/internal/journal"
	"photodtn/internal/model"
	"photodtn/internal/obs"
	"photodtn/internal/peer"
	"photodtn/internal/sim"
	gen "photodtn/internal/workload"
)

// contactWait bounds how long a contact waits for its responder to hang
// up. A healthy loopback contact takes milliseconds; the bound only keeps a
// broken one from stalling the run.
const contactWait = 30 * time.Second

// liveNet is a set of live peers on loopback TCP. Every peer that answers
// contacts serves on its own listener; every connection and journal file
// goes through a metering wrapper, so wire and disk work is counted (and,
// when traced, timed) from outside the peer.
type liveNet struct {
	tr    *tracer
	obs   *obs.Observer // attached to every peer of a traced unit
	unit  int32
	dir   string
	clock atomic.Uint64 // the shared logical clock, float64 seconds

	peers map[model.NodeID]*livePeer
	serve sync.WaitGroup

	mu     sync.Mutex
	byAddr map[string]*contactRec // initiator's local address → its contact

	wireBytes  atomic.Int64
	wireWrites atomic.Int64
	jBytes     atomic.Int64
	jFsyncs    atomic.Int64
	jRenames   atomic.Int64
}

func newLiveNet(parent string, idx int32, tc *traceCtx) (*liveNet, error) {
	dir, err := os.MkdirTemp(parent, "unit-")
	if err != nil {
		return nil, fmt.Errorf("state dir: %w", err)
	}
	return &liveNet{
		tr:     tc.tracer(),
		obs:    tc.observer(),
		unit:   idx,
		dir:    dir,
		peers:  make(map[model.NodeID]*livePeer),
		byAddr: make(map[string]*contactRec),
	}, nil
}

func (n *liveNet) now() float64 { return math.Float64frombits(n.clock.Load()) }

func (n *liveNet) setClock(t float64) { n.clock.Store(math.Float64bits(t)) }

// advanceClock moves the shared clock forward by d seconds.
func (n *liveNet) advanceClock(d float64) {
	for {
		old := n.clock.Load()
		if n.clock.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// peerSpec is how one live peer is built.
type peerSpec struct {
	id       model.NodeID
	m        *coverage.Map
	capacity int64
	durable  bool
	serve    bool
	opts     []peer.Option
}

// livePeer is one peer of a liveNet plus the spans it has open, so that a
// journal write can be charged to the call it happened in.
type livePeer struct {
	id   model.NodeID
	p    *peer.Peer
	net  *liveNet
	ln   net.Listener
	addr string
	dir  string
	spec peerSpec

	mu     sync.Mutex
	active []int32
}

// addPeer builds a peer and, if it answers contacts, starts serving it.
func (n *liveNet) addPeer(spec peerSpec) (*livePeer, error) {
	lp := &livePeer{id: spec.id, net: n, spec: spec}
	opts := append([]peer.Option{
		peer.WithClock(n.now),
		peer.WithContextDialer(lp.dial),
		peer.WithRetry(1, 0, 0),
	}, spec.opts...)
	if n.obs != nil {
		opts = append(opts, photodtn.WithObserver(n.obs))
	}
	var err error
	if spec.durable {
		lp.dir = filepath.Join(n.dir, fmt.Sprintf("peer-%d", spec.id))
		opts = append(opts, peer.WithJournalFS(meteredFS{lp: lp}))
		lp.p, err = peer.Open(lp.dir, spec.id, spec.m, spec.capacity, opts...)
		if err != nil {
			return nil, err
		}
	} else {
		lp.p = peer.New(spec.id, spec.m, spec.capacity, opts...)
	}
	n.peers[spec.id] = lp
	if spec.serve {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("listen: %w", err)
		}
		lp.ln = l
		lp.addr = l.Addr().String()
		p := lp.p
		n.serve.Add(1)
		go func() {
			defer n.serve.Done()
			_ = p.Serve(&meteredListener{Listener: l, lp: lp})
		}()
	}
	return lp, nil
}

// close stops every listener, waits for the serve loops, closes the
// journals and removes the unit's state.
func (n *liveNet) close() error {
	var errs []error
	for _, lp := range n.peers {
		if lp.ln != nil {
			_ = lp.ln.Close()
		}
	}
	n.serve.Wait()
	for _, lp := range n.peers {
		errs = append(errs, lp.p.Close())
	}
	errs = append(errs, os.RemoveAll(n.dir))
	return errors.Join(errs...)
}

// push and pop track the spans a peer has open.
func (lp *livePeer) push(id int32) {
	if id < 0 {
		return
	}
	lp.mu.Lock()
	lp.active = append(lp.active, id)
	lp.mu.Unlock()
}

func (lp *livePeer) pop(id int32) {
	if id < 0 {
		return
	}
	lp.mu.Lock()
	for i := len(lp.active) - 1; i >= 0; i-- {
		if lp.active[i] == id {
			lp.active = append(lp.active[:i], lp.active[i+1:]...)
			break
		}
	}
	lp.mu.Unlock()
}

// current is the span a journal call of this peer belongs to: its newest
// open span. The command center of live-ingest serves two contacts at once;
// its journal calls are charged to the newer one.
func (lp *livePeer) current() int32 {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if len(lp.active) == 0 {
		return -1
	}
	return lp.active[len(lp.active)-1]
}

// contactRec is one contact in flight.
type contactRec struct {
	idx    int32
	span   int32 // live.contact
	dial   int32 // peer.dial
	served chan struct{}
	once   sync.Once
}

func (c *contactRec) done() { c.once.Do(func() { close(c.served) }) }

type contactKey struct{}

// contact runs one contact from a to b: a dials, b serves. It returns once
// both sides are done — a's DialContext has returned and b has closed its
// connection — and reports the time from dial start to then.
func (n *liveNet) contact(parent int32, idx int32, a, b *livePeer) (time.Duration, error) {
	rec := &contactRec{idx: idx, served: make(chan struct{})}
	t0 := time.Now()
	rec.span = n.tr.begin(lLiveContact, parent, n.unit, idx)
	rec.dial = n.tr.begin(lPeerDial, rec.span, n.unit, idx)
	a.push(rec.dial)
	err := a.p.DialContext(context.WithValue(context.Background(), contactKey{}, rec), b.addr)
	a.pop(rec.dial)
	n.tr.end(rec.dial)
	wait := contactWait
	if err != nil {
		wait = time.Second // the responder may never have accepted
	}
	timer := time.NewTimer(wait)
	select {
	case <-rec.served:
	case <-timer.C:
		if err == nil {
			err = fmt.Errorf("contact %d: responder still open after %v", idx, wait)
		}
	}
	timer.Stop()
	n.tr.end(rec.span)
	return time.Since(t0), err
}

// dial is the peers' context dialer: it registers the new connection under
// its local address, where the responder's side finds its contact.
func (lp *livePeer) dial(ctx context.Context, addr string) (net.Conn, error) {
	c, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	mc := &meteredConn{Conn: c, net: lp.net, span: -1, contact: -1}
	if rec, ok := ctx.Value(contactKey{}).(*contactRec); ok {
		mc.span, mc.contact = rec.dial, rec.idx
		lp.net.mu.Lock()
		lp.net.byAddr[c.LocalAddr().String()] = rec
		lp.net.mu.Unlock()
	}
	return mc, nil
}

// meteredListener opens a peer.serve span for every accepted connection.
type meteredListener struct {
	net.Listener
	lp *livePeer
}

func (l *meteredListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	n := l.lp.net
	sp := n.tr.begin(lPeerServe, -1, n.unit, -1)
	l.lp.push(sp)
	return &meteredConn{Conn: c, net: n, owner: l.lp, span: sp, contact: -1, serve: true}, nil
}

// meteredConn counts the bytes a side writes and, when traced, times every
// Read as wire.read_wait. It embeds the net.Conn, so the peer's deadlines
// reach the socket.
type meteredConn struct {
	net.Conn
	net     *liveNet
	owner   *livePeer // the responder; nil on the initiator's side
	span    int32     // the side's span
	contact int32
	serve   bool

	rec       atomic.Pointer[contactRec]
	closeOnce sync.Once
}

func (c *meteredConn) Read(b []byte) (int, error) {
	id := c.net.tr.begin(lReadWait, c.span, c.net.unit, c.contact)
	n, err := c.Conn.Read(b)
	c.net.tr.end(id)
	if n > 0 && c.serve {
		c.resolve()
	}
	return n, err
}

func (c *meteredConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.net.wireBytes.Add(int64(n))
	c.net.wireWrites.Add(1)
	return n, err
}

// resolve finds the contact a responder's connection belongs to. The
// initiator registers it before its first write, so it is known once the
// first byte has arrived.
func (c *meteredConn) resolve() *contactRec {
	if rec := c.rec.Load(); rec != nil {
		return rec
	}
	key := c.RemoteAddr().String()
	c.net.mu.Lock()
	rec := c.net.byAddr[key]
	delete(c.net.byAddr, key)
	c.net.mu.Unlock()
	if rec != nil && c.rec.CompareAndSwap(nil, rec) {
		c.net.tr.adopt(c.span, rec.span, rec.idx)
	}
	return c.rec.Load()
}

func (c *meteredConn) Close() error {
	err := c.Conn.Close()
	if c.serve {
		c.closeOnce.Do(func() {
			rec := c.resolve()
			c.net.tr.end(c.span)
			c.owner.pop(c.span)
			if rec != nil {
				rec.done()
			}
		})
	}
	return err
}

// meteredFS counts (and, when traced, times) a peer's journal writes,
// fsyncs and snapshot renames on the real filesystem.
type meteredFS struct {
	journal.OSFS
	lp *livePeer
}

func (f meteredFS) OpenFile(name string, flag int, perm fs.FileMode) (journal.File, error) {
	file, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &meteredFile{File: file, lp: f.lp}, nil
}

func (f meteredFS) Rename(oldpath, newpath string) error {
	f.lp.net.jRenames.Add(1)
	return f.OSFS.Rename(oldpath, newpath)
}

type meteredFile struct {
	journal.File
	lp *livePeer
}

func (f *meteredFile) Write(p []byte) (int, error) {
	n := f.lp.net
	id := n.tr.begin(lJournalWrite, f.lp.current(), n.unit, -1)
	w, err := f.File.Write(p)
	n.tr.end(id)
	n.jBytes.Add(int64(w))
	return w, err
}

func (f *meteredFile) Sync() error {
	n := f.lp.net
	id := n.tr.begin(lJournalFsync, f.lp.current(), n.unit, -1)
	err := f.File.Sync()
	n.tr.end(id)
	n.jFsyncs.Add(1)
	return err
}

// addPhoto captures a photo at a peer inside a peer.add_photo span.
func (n *liveNet) addPhoto(parent int32, lp *livePeer, ph model.Photo) error {
	id := n.tr.begin(lAddPhoto, parent, n.unit, -1)
	lp.push(id)
	err := lp.p.AddPhoto(ph)
	lp.pop(id)
	n.tr.end(id)
	return err
}

// tally reads the unit's wire, disk, transfer and guard counts.
func (n *liveNet) tally(chunkBytes int64) tally {
	t := tally{
		wireWrites: n.wireWrites.Load(),
		jBytes:     n.jBytes.Load(),
		jFsyncs:    n.jFsyncs.Load(),
		jRenames:   n.jRenames.Load(),
	}
	for _, lp := range n.peers {
		ts := lp.p.TransferStats()
		t.chunksSent += ts.ChunksSent
		t.chunksRecv += ts.ChunksReceived
		t.wastedBytes += ts.WastedBytes
		t.usefulBytes += ts.ChunksReceived*chunkBytes - ts.WastedBytes
		t.commits += int64(lp.p.JournalStats().Commits)
		gs := lp.p.GuardStats()
		t.violations += gs.Violations
		t.shed += gs.ShedContacts
	}
	return t
}

// checkPeers checks what must hold at every peer after a clean unit: no
// contact failed, no journal broke, the guard never fired on an honest
// peer.
func (n *liveNet) checkPeers() error {
	for _, lp := range n.peers {
		if err := lp.p.JournalError(); err != nil {
			return fmt.Errorf("peer %v: %w", lp.id, err)
		}
		if k := lp.p.ContactErrors(); k > 0 {
			return fmt.Errorf("peer %v: %d contact errors, last: %v", lp.id, k, lp.p.LastContactError())
		}
		if gs := lp.p.GuardStats(); gs.Violations > 0 || gs.ShedContacts > 0 {
			return fmt.Errorf("peer %v: guard saw %d violations, shed %d contacts", lp.id, gs.Violations, gs.ShedContacts)
		}
	}
	return nil
}

// checkRecovery closes a durable peer and reopens it from its journal: the
// recovered state must equal the live state.
func (n *liveNet) checkRecovery(lp *livePeer) error {
	want := lp.p.StateDigest()
	if err := lp.p.Close(); err != nil {
		return fmt.Errorf("close peer %v: %w", lp.id, err)
	}
	// The recovered peer needs no dialer or observer: it only recovers.
	opts := append([]peer.Option{peer.WithClock(n.now)}, lp.spec.opts...)
	re, err := peer.Open(lp.dir, lp.id, lp.spec.m, lp.spec.capacity, opts...)
	if err != nil {
		return fmt.Errorf("reopen peer %v: %w", lp.id, err)
	}
	lp.p = re
	if got := re.StateDigest(); got != want {
		return fmt.Errorf("peer %v recovered state digest %016x, live %016x", lp.id, got, want)
	}
	return nil
}

// ccCoverage returns the command center's normalized coverage.
func ccCoverage(m *coverage.Map, photos model.PhotoList) (point, aspectDeg float64) {
	pt, as := m.Normalized(m.Of(photos))
	return pt, geo.Degrees(as)
}

// --- live-replay ---

// replayPayload is the synthetic image size on the wire: one 4 KiB chunk
// per photo, so metadata gossip rather than payload dominates the wire.
const replayPayload = 4 << 10

// replayEvent is one step of the replay: a capture or a contact.
type replayEvent struct {
	time    float64
	contact bool
	node    model.NodeID
	photo   model.Photo
	a, b    model.NodeID
}

// replayWorkload replays the simulator twin's inputs — the MIT-like trace,
// its gateway contacts and the Table I photo workload — through 98 durable,
// guarded live peers, one contact at a time. It is heavy on metadata
// gossip, per-capture fsyncs and peer-side reallocation.
func replayWorkload() *workload {
	return &workload{name: "live-replay", newUnit: newReplayUnit}
}

type replayUnit struct {
	net      *liveNet
	m        *coverage.Map
	events   []replayEvent
	captured map[model.PhotoID]bool
}

func newReplayUnit(rc *runConfig, seed int64, idx int32, tc *traceCtx) (unit, error) {
	spanHours := 0.0
	if rc.small {
		spanHours = 12
	}
	cfg, _, err := tableI(experiments.DefaultParams(experiments.MIT).PhotosPerHour, spanHours, seed)
	if err != nil {
		return nil, err
	}
	n, err := newLiveNet(rc.stateDir, idx, tc)
	if err != nil {
		return nil, err
	}
	u := &replayUnit{net: n, m: cfg.Map, events: replayEvents(cfg), captured: make(map[model.PhotoID]bool)}
	for id := model.NodeID(0); int(id) <= cfg.Trace.Nodes; id++ {
		opts := []peer.Option{
			peer.WithGuard(guard.Config{}),
			peer.WithSeed(seed<<8 ^ int64(id)),
			peer.WithPayloadBytes(replayPayload),
		}
		spec := peerSpec{id: id, m: cfg.Map, capacity: cfg.StorageBytes, durable: true, serve: true, opts: opts}
		if _, err := n.addPeer(spec); err != nil {
			return nil, errors.Join(fmt.Errorf("peer %v: %w", id, err), n.close())
		}
	}
	return u, nil
}

// replayEvents merges captures, trace contacts and gateway contacts in the
// simulator's event order: by time, a capture before a contact at the same
// instant, contacts in trace order.
func replayEvents(cfg sim.Config) []replayEvent {
	span := cfg.Span
	var evs []replayEvent
	for _, pe := range cfg.Photos {
		if pe.Time <= span {
			evs = append(evs, replayEvent{time: pe.Time, node: pe.Node, photo: pe.Photo})
		}
	}
	for _, c := range cfg.Trace.Contacts {
		if c.Start <= span {
			evs = append(evs, replayEvent{time: c.Start, contact: true, a: c.A, b: c.B})
		}
	}
	for _, c := range sim.GatewayContacts(cfg, span) {
		evs = append(evs, replayEvent{time: c.Start, contact: true, a: c.A, b: c.B})
	}
	sort.SliceStable(evs, func(i, j int) bool {
		if evs[i].time != evs[j].time {
			return evs[i].time < evs[j].time
		}
		return !evs[i].contact && evs[j].contact
	})
	return evs
}

func (u *replayUnit) close() error { return u.net.close() }

func (u *replayUnit) run() (unitResult, error) {
	n := u.net
	idx := n.unit
	r := unitResult{}
	var allocs allocReader
	a0 := allocs.read()
	root := n.tr.begin(lLiveUnit, -1, idx, -1)
	t0 := time.Now()
	var contactErr error
	for _, ev := range u.events {
		n.setClock(ev.time)
		if !ev.contact {
			r.tally.captures++
			switch err := n.addPhoto(root, n.peers[ev.node], ev.photo); {
			case err == nil:
				u.captured[ev.photo.ID] = true
			case errors.Is(err, sim.ErrNoSpace):
				r.tally.rejected++
			default:
				return r, fmt.Errorf("capture %v: %w", ev.photo.ID, err)
			}
			continue
		}
		lat, err := n.contact(root, int32(r.contacts), n.peers[ev.a], n.peers[ev.b])
		r.contacts++
		if err != nil {
			r.failed++
			contactErr = err
			continue
		}
		r.latMs = append(r.latMs, float64(lat)/float64(time.Millisecond))
	}
	r.exec = time.Since(t0)
	n.tr.end(root)
	r.alloc = allocs.read() - a0

	cc := n.peers[model.CommandCenter]
	delivered := cc.p.Photos()
	r.delivered = int64(len(delivered))
	r.wireBytes = n.wireBytes.Load()
	r.point, r.aspectDeg = ccCoverage(u.m, delivered)
	t := n.tally(replayPayload)
	t.captures, t.rejected = r.tally.captures, r.tally.rejected
	r.tally = t
	r.digest = replayDigest(cc.p.StateDigest(), delivered)
	r.checkErr = errors.Join(
		contactErr,
		checkDelivered(delivered, func(id model.PhotoID) bool { return u.captured[id] }),
		n.checkPeers(),
		n.checkRecovery(cc),
	)
	return r, nil
}

// replayDigest hashes the command center's state digest and its delivered
// photo IDs.
func replayDigest(state uint64, delivered model.PhotoList) string {
	h := fnv.New64a()
	buf := binary.LittleEndian.AppendUint64(nil, state)
	for _, id := range sortedIDs(delivered) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(id))
	}
	_, _ = h.Write(buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

// --- live-ingest ---

// Ingest sizing: 64 KiB photos in 16 KiB chunks, two fresh captures per
// contact, 30 logical seconds between contacts (the guard's per-peer
// contact bucket refills at 1/s, so an honest dialer is never shed).
const (
	ingestPayload    = 64 << 10
	ingestChunk      = 16 << 10
	ingestDialers    = 2
	ingestPerContact = 2
	ingestTick       = 30.0
	ingestPoIs       = 20000
)

// ingestContacts is how many contacts each dialer makes per unit.
func ingestContacts(rc *runConfig) int {
	if rc.small {
		return 10
	}
	return 250
}

// ingestWorkload has one durable, guarded command center take chunked
// uploads from two gateways dialling at once: concurrent commits through
// its critical section, fragment fsyncs and chunk reassembly, with almost
// no selection work.
func ingestWorkload() *workload {
	return &workload{
		name: "live-ingest",
		newUnit: func(rc *runConfig, seed int64, idx int32, tc *traceCtx) (unit, error) {
			return newIngestUnit(rc, seed, idx, tc)
		},
	}
}

type ingestUnit struct {
	net     *liveNet
	m       *coverage.Map
	cc      *livePeer
	dialers []*livePeer
	photos  [][]model.Photo // per dialer, in capture order
	perDial int
}

func newIngestUnit(rc *runConfig, seed int64, idx int32, tc *traceCtx) (*ingestUnit, error) {
	perDial := ingestContacts(rc)
	wl := gen.Default(ingestDialers, 3600)
	wl.NumPoIs = ingestPoIs
	// Poisson arrivals over an hour, with headroom over what the dialers
	// capture; each dialer takes its own first photos.
	need := perDial * ingestPerContact
	wl.PhotosPerHour = float64(need*ingestDialers)*1.25 + 100
	m := coverage.NewMap(gen.GeneratePoIs(wl, rand.New(rand.NewSource(scenarioSeed))), geo.Radians(30))
	photos := make([][]model.Photo, ingestDialers)
	for _, ev := range gen.GeneratePhotos(wl, rand.New(rand.NewSource(seed))) {
		i := int(ev.Node) - 1
		if len(photos[i]) < need {
			photos[i] = append(photos[i], ev.Photo)
		}
	}
	for i, ph := range photos {
		if len(ph) < need {
			return nil, fmt.Errorf("dialer %d: workload drew %d photos, need %d", i+1, len(ph), need)
		}
	}
	n, err := newLiveNet(rc.stateDir, idx, tc)
	if err != nil {
		return nil, err
	}
	transfer := peer.WithTransfer(peer.TransferConfig{ChunkSize: ingestChunk, Resume: true})
	common := []peer.Option{transfer, peer.WithPayloadBytes(ingestPayload)}
	u := &ingestUnit{net: n, m: m, photos: photos, perDial: perDial}
	ccOpts := append([]peer.Option{peer.WithGuard(guard.Config{}), peer.WithSeed(seed << 8)}, common...)
	u.cc, err = n.addPeer(peerSpec{id: model.CommandCenter, m: m, durable: true, serve: true, opts: ccOpts})
	if err != nil {
		return nil, errors.Join(err, n.close())
	}
	for i := 1; i <= ingestDialers; i++ {
		id := model.NodeID(i)
		opts := append([]peer.Option{peer.WithSeed(seed<<8 ^ int64(id))}, common...)
		// Room for 64 photos: far more than a gateway keeps of the photos it
		// does not upload.
		d, err := n.addPeer(peerSpec{id: id, m: m, capacity: wl.PhotoSize * 64, opts: opts})
		if err != nil {
			return nil, errors.Join(err, n.close())
		}
		u.dialers = append(u.dialers, d)
	}
	return u, nil
}

func (u *ingestUnit) close() error { return u.net.close() }

func (u *ingestUnit) run() (unitResult, error) {
	n := u.net
	idx := n.unit
	var allocs allocReader
	a0 := allocs.read()
	root := n.tr.begin(lLiveUnit, -1, idx, -1)
	var (
		next    atomic.Int32
		wg      sync.WaitGroup
		results = make([]unitResult, len(u.dialers))
		errs    = make([]error, len(u.dialers))
	)
	t0 := time.Now()
	for i, d := range u.dialers {
		wg.Add(1)
		go func(i int, d *livePeer) {
			defer wg.Done()
			r := &results[i]
			for k := 0; k < u.perDial; k++ {
				for _, ph := range u.photos[i][k*ingestPerContact : (k+1)*ingestPerContact] {
					r.tally.captures++
					if err := n.addPhoto(root, d, ph); err != nil {
						errs[i] = fmt.Errorf("capture %v: %w", ph.ID, err)
						return
					}
				}
				n.advanceClock(ingestTick)
				lat, err := n.contact(root, next.Add(1)-1, d, u.cc)
				r.contacts++
				if err != nil {
					r.failed++
					errs[i] = err
					continue
				}
				r.latMs = append(r.latMs, float64(lat)/float64(time.Millisecond))
			}
		}(i, d)
	}
	wg.Wait()
	r := unitResult{exec: time.Since(t0)}
	n.tr.end(root)
	r.alloc = allocs.read() - a0
	for _, dr := range results {
		r.contacts += dr.contacts
		r.failed += dr.failed
		r.latMs = append(r.latMs, dr.latMs...)
		r.tally.captures += dr.tally.captures
	}
	delivered := u.cc.p.Photos()
	r.delivered = int64(len(delivered))
	r.wireBytes = n.wireBytes.Load()
	r.point, r.aspectDeg = ccCoverage(u.m, delivered)
	ccChunks := u.cc.p.TransferStats().ChunksReceived
	t := n.tally(ingestChunk)
	t.captures = r.tally.captures
	r.tally = t
	r.checkErr = errors.Join(
		errors.Join(errs...),
		u.checkConservation(delivered, ccChunks),
		n.checkPeers(),
		n.checkRecovery(u.cc),
	)
	return r, nil
}

// checkConservation checks that every captured photo is either still held
// by its dialer or delivered, never both; that the command center holds
// only captured photos; and that it received exactly one transfer per
// delivered photo, so no photo was delivered twice.
func (u *ingestUnit) checkConservation(delivered model.PhotoList, ccChunks int64) error {
	atCC := make(map[model.PhotoID]bool, len(delivered))
	for _, ph := range delivered {
		atCC[ph.ID] = true
	}
	captured := make(map[model.PhotoID]bool)
	for i, d := range u.dialers {
		held := make(map[model.PhotoID]bool)
		for _, ph := range d.p.Photos() {
			if atCC[ph.ID] {
				return fmt.Errorf("photo %v is both delivered and still held by %v", ph.ID, d.id)
			}
			held[ph.ID] = true
		}
		for _, ph := range u.photos[i] {
			if !held[ph.ID] && !atCC[ph.ID] {
				return fmt.Errorf("photo %v captured by %v was lost", ph.ID, d.id)
			}
			captured[ph.ID] = true
		}
	}
	if err := checkDelivered(delivered, func(id model.PhotoID) bool { return captured[id] }); err != nil {
		return err
	}
	if want := int64(len(delivered)) * ingestPayload / ingestChunk; ccChunks != want {
		return fmt.Errorf("command center received %d chunks for %d delivered photos, want %d",
			ccChunks, len(delivered), want)
	}
	return nil
}
