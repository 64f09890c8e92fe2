// Package metadata implements the metadata management scheme of §III-B.
//
// Nodes exchange photo metadata on every contact and cache what they learn
// about other nodes. Because DTN connectivity is too poor for traditional
// cache validation, an entry for node a is instead considered stale once the
// probability that a has met someone (and thus changed its photos) since the
// snapshot exceeds a threshold:
//
//	P{T_a < t} = 1 − e^(−λ_a·t) > P_thld,
//
// where λ_a is a's aggregate contact rate learned from history and t the
// time since the snapshot was taken (eq. 1 of the paper).
//
// The command center's metadata is special in two ways: it never goes stale
// (the command center never drops photos), and sharing it acts as a delivery
// acknowledgement that lets nodes purge already-delivered photos from
// consideration.
package metadata

import (
	"math"
	"slices"
	"sort"

	"photodtn/internal/model"
)

// DefaultPthld is the validity threshold P_thld from Table I.
const DefaultPthld = 0.8

// Entry is one cached metadata snapshot: what photos a node held, its
// learned contact rate, and when the snapshot was taken at the origin.
type Entry struct {
	// Node is the origin node the snapshot describes.
	Node model.NodeID
	// Photos is the origin's photo collection at snapshot time.
	Photos model.PhotoList
	// Lambda is the origin's aggregate contact rate λ_a in contacts/second,
	// as learned and advertised by the origin itself.
	Lambda float64
	// P is the origin's delivery probability to the command center (its
	// PROPHET p_i), as advertised at snapshot time. Expected coverage uses
	// it to weigh the origin's photos.
	P float64
	// Timestamp is when the snapshot was taken, in seconds of global
	// simulation/wall time.
	Timestamp float64
}

// StaleProb returns P{T_a < t}: the probability the origin node has met
// another node (and may have changed its photos) by time now.
//
// Clock skew (or out-of-order event processing) can put a snapshot's
// Timestamp in the observer's future. Treating that negative elapsed time
// as zero would make the entry permanently fresh — it would never expire
// until local time caught up past the skewed stamp. Staleness is a function
// of how far apart the two clocks' views are, so the magnitude |t| is used:
// an entry stamped far in the future is exactly as untrustworthy as one
// stamped equally far in the past.
func (e Entry) StaleProb(now float64) float64 {
	t := math.Abs(now - e.Timestamp)
	if t == 0 || e.Lambda <= 0 {
		return 0
	}
	return 1 - math.Exp(-e.Lambda*t)
}

// ValidityHorizon returns how long a snapshot from a node with rate lambda
// stays valid under threshold pthld: the t solving 1 − e^(−λt) = P_thld.
// It returns +Inf for a zero rate.
func ValidityHorizon(lambda, pthld float64) float64 {
	if lambda <= 0 {
		return math.Inf(1)
	}
	if pthld >= 1 {
		return math.Inf(1)
	}
	if pthld <= 0 {
		return 0
	}
	return -math.Log(1-pthld) / lambda
}

// Cache is one node's knowledge about every other node's photos. The zero
// value is not usable; call NewCache. Cache is not safe for concurrent use.
//
// Photo lists are immutable once stored, which lets caches share them:
//
//   - Put copies the caller's list on store, so a caller may reuse or
//     mutate its slice afterwards.
//   - MergeFrom (gossip) and Clone share the other cache's lists instead of
//     copying them.
//   - No cache ever writes into a list it holds. A command-center merge that
//     learns new photos builds a new list; one that learns nothing keeps the
//     old one.
//
// Lists handed out by Get, Entries and ValidEntries are therefore read-only
// for their holders too: they may be held by several caches at once.
type Cache struct {
	owner   model.NodeID
	pthld   float64
	entries map[model.NodeID]Entry

	// ccIndex maps every photo of the command-center entry to its position
	// in that entry's list, so a merge looks up instead of rebuilding the
	// union. It is built by the first merge that needs it, and it is nil
	// whenever the command-center entry is absent or was stored wholesale
	// since.
	ccIndex map[model.PhotoID]int32
	// ccSorted is the command-center entry's photo IDs, sorted and without
	// repeats: what Delivered returns. It is built by the first Delivered or
	// Clone that needs it, and from then on every merge that learns a photo
	// replaces it, never writing into it, so clones share it like the photo
	// lists. It is nil whenever the entry is absent; a cache that is never
	// cloned or asked (the simulator's) never builds it.
	ccSorted []model.PhotoID

	// Optional caps (0 = unlimited), enforced by eviction at Put time.
	maxEntries int
	maxBytes   int64
	bytes      int64
}

// entryOverhead approximates one entry's fixed cost next to its photo
// list: node + λ + p + timestamp, as encoded on the wire.
const entryOverhead = 4 + 8 + 8 + 8

// entrySize is an entry's accounted cost in bytes.
func entrySize(e Entry) int64 {
	return entryOverhead + int64(len(e.Photos))*model.PhotoWireSize
}

// NewCache returns an empty cache with the given validity threshold; a
// non-positive threshold falls back to DefaultPthld.
func NewCache(owner model.NodeID, pthld float64) *Cache {
	if pthld <= 0 {
		pthld = DefaultPthld
	}
	return &Cache{owner: owner, pthld: pthld, entries: make(map[model.NodeID]Entry)}
}

// Owner returns the node the cache belongs to.
func (c *Cache) Owner() model.NodeID { return c.owner }

// Pthld returns the validity threshold in use.
func (c *Cache) Pthld() float64 { return c.pthld }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return len(c.entries) }

// Bytes returns the accounted size of the cache: a fixed per-entry
// overhead plus the encoded size of every listed photo.
func (c *Cache) Bytes() int64 { return c.bytes }

// SetLimits bounds the cache to at most maxEntries entries and maxBytes of
// accounted entry size (zero or negative disables a bound). When a Put
// pushes past a bound, the entries with the oldest snapshot timestamps are
// evicted first (ties broken toward the higher node ID) — the entries
// closest to going stale anyway. The command-center entry is never
// evicted: it is the delivery-acknowledgement ledger, and losing it would
// resurrect already-delivered photos.
func (c *Cache) SetLimits(maxEntries int, maxBytes int64) {
	c.maxEntries, c.maxBytes = maxEntries, maxBytes
	c.evict()
}

// setEntry stores an entry and keeps the byte account in balance.
func (c *Cache) setEntry(e Entry) {
	if old, ok := c.entries[e.Node]; ok {
		c.bytes -= entrySize(old)
	}
	c.bytes += entrySize(e)
	c.entries[e.Node] = e
}

// delEntry removes an entry and keeps the byte account in balance.
func (c *Cache) delEntry(node model.NodeID) {
	if old, ok := c.entries[node]; ok {
		c.bytes -= entrySize(old)
		delete(c.entries, node)
		if node.IsCommandCenter() {
			c.ccIndex, c.ccSorted = nil, nil
		}
	}
}

// evict enforces the configured caps by dropping oldest-snapshot entries
// (never the command center's).
func (c *Cache) evict() {
	over := func() bool {
		return (c.maxEntries > 0 && len(c.entries) > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)
	}
	for over() {
		victim := model.NodeID(0)
		found := false
		var oldest float64
		for node, e := range c.entries {
			if node.IsCommandCenter() {
				continue
			}
			if !found || e.Timestamp < oldest || (e.Timestamp == oldest && node > victim) {
				victim, oldest, found = node, e.Timestamp, true
			}
		}
		if !found {
			return // only the command center left; nothing evictable
		}
		c.delEntry(victim)
	}
}

// Put stores a snapshot, keeping the newer of the existing and incoming
// entries. Command-center entries are merged by union (the command center
// never drops photos, so any two snapshots of it are consistent). The
// cache never keeps the caller's slice: it copies whatever it stores.
func (c *Cache) Put(e Entry) { c.put(e, false) }

// put is Put; share stores (or adopts) e.Photos without copying it, for
// lists that come from another cache and are therefore never written.
func (c *Cache) put(e Entry, share bool) {
	if e.Node == c.owner {
		return // a node does not cache itself
	}
	old, ok := c.entries[e.Node]
	switch {
	case !ok, !e.Node.IsCommandCenter() && e.Timestamp > old.Timestamp:
		if !share {
			e.Photos = e.Photos.Clone()
		}
		c.setEntry(e)
	case e.Node.IsCommandCenter():
		c.setEntry(c.mergeCC(old, e, share))
	default:
		return
	}
	c.evict()
}

// mergeCC unions the incoming command-center snapshot b into the stored one
// a: a's photos without duplicates, then b's new photos in b's order, the
// later timestamp, and zero λ and p. It never writes into a's or b's list.
// A merge that learns nothing returns a's list itself. One that learns
// something returns b's list when share allows it and b is exactly that
// union, and otherwise a new list of exactly the union's length.
func (c *Cache) mergeCC(a, b Entry, share bool) Entry {
	out := Entry{
		Node:      model.CommandCenter,
		Photos:    a.Photos,
		Timestamp: math.Max(a.Timestamp, b.Timestamp),
	}
	if c.ccIndex == nil {
		out.Photos = c.indexCC(a.Photos)
	}
	n := len(out.Photos)
	// Number b's new photos after a's; a repeat inside b keeps the position
	// of its first occurrence.
	track := c.ccSorted != nil
	var learned []model.PhotoID
	fresh, first := 0, -1
	for i, p := range b.Photos {
		if _, ok := c.ccIndex[p.ID]; !ok {
			if first < 0 {
				first = i
			}
			c.ccIndex[p.ID] = int32(n + fresh)
			fresh++
			if track {
				learned = append(learned, p.ID)
			}
		}
	}
	if fresh == 0 {
		return out
	}
	if track {
		c.ccSorted = mergeSorted(c.ccSorted, learned)
	}
	if share && len(b.Photos) == n+fresh && slices.Equal(b.Photos[:n], out.Photos) {
		out.Photos = b.Photos
		return out
	}
	merged := make(model.PhotoList, n, n+fresh)
	copy(merged, out.Photos)
	for _, p := range b.Photos[first:] {
		if int(c.ccIndex[p.ID]) == len(merged) {
			merged = append(merged, p)
		}
	}
	out.Photos = merged
	return out
}

// indexCC builds ccIndex over the stored command-center list and returns
// the list without duplicates: the list itself when it has none, else a
// copy keeping each photo's first occurrence.
func (c *Cache) indexCC(photos model.PhotoList) model.PhotoList {
	c.ccIndex = make(map[model.PhotoID]int32, len(photos))
	dup := false
	for _, p := range photos {
		if _, ok := c.ccIndex[p.ID]; ok {
			dup = true
			continue
		}
		c.ccIndex[p.ID] = int32(len(c.ccIndex))
	}
	if !dup {
		return photos
	}
	out := make(model.PhotoList, 0, len(c.ccIndex))
	for _, p := range photos {
		if int(c.ccIndex[p.ID]) == len(out) {
			out = append(out, p)
		}
	}
	return out
}

// sortedIDs returns the IDs of photos sorted and without repeats, in a new
// slice.
func sortedIDs(photos model.PhotoList) []model.PhotoID {
	out := make([]model.PhotoID, len(photos))
	for i, p := range photos {
		out[i] = p.ID
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// mergeSorted returns the union of sorted, a strictly increasing ID list,
// and learned, distinct IDs none of which is in sorted, as a new strictly
// increasing list. It sorts learned in place and never writes into sorted.
func mergeSorted(sorted, learned []model.PhotoID) []model.PhotoID {
	slices.Sort(learned)
	out := make([]model.PhotoID, 0, len(sorted)+len(learned))
	i := 0
	for _, id := range learned {
		for i < len(sorted) && sorted[i] < id {
			out = append(out, sorted[i])
			i++
		}
		out = append(out, id)
	}
	return append(out, sorted[i:]...)
}

// Clone returns an independent copy of the cache: same owner, threshold,
// limits and entries. The photo lists and the sorted delivered IDs are
// shared, as they are never written; Clone builds the latter first if c
// lacks it, so that c's later merges keep it current for the next clone.
// The clone builds its own command-center index when it first needs one.
func (c *Cache) Clone() *Cache {
	out := &Cache{
		owner: c.owner, pthld: c.pthld,
		maxEntries: c.maxEntries, maxBytes: c.maxBytes, bytes: c.bytes,
		entries:  make(map[model.NodeID]Entry, len(c.entries)),
		ccSorted: c.Delivered(),
	}
	for node, e := range c.entries {
		out.entries[node] = e
	}
	return out
}

// Get returns the cached entry for a node, valid or not.
func (c *Cache) Get(node model.NodeID) (Entry, bool) {
	e, ok := c.entries[node]
	return e, ok
}

// Remove drops the entry for a node.
func (c *Cache) Remove(node model.NodeID) { c.delEntry(node) }

// IsValid applies eq. (1): an entry is valid while its staleness probability
// is at most P_thld. Command-center entries are always valid.
func (c *Cache) IsValid(e Entry, now float64) bool {
	if e.Node.IsCommandCenter() {
		return true
	}
	return e.StaleProb(now) <= c.pthld
}

// DropInvalid removes every stale entry and returns how many were dropped.
func (c *Cache) DropInvalid(now float64) int {
	dropped := 0
	for node, e := range c.entries {
		if !c.IsValid(e, now) {
			c.delEntry(node)
			dropped++
		}
	}
	return dropped
}

// Entries returns every cached entry — valid or stale — sorted by node ID.
// It is the snapshot surface for durable peers: a restart must restore the
// cache exactly, and what is stale is for IsValid to decide at use time.
func (c *Cache) Entries() []Entry {
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// ValidEntries returns the currently valid entries sorted by node ID
// (deterministic order for the selection algorithm).
func (c *Cache) ValidEntries(now float64) []Entry {
	out := make([]Entry, 0, len(c.entries))
	for _, e := range c.entries {
		if c.IsValid(e, now) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// MergeFrom gossips another cache into this one: every entry of other is
// Put into c, sharing other's photo lists rather than copying them. This
// propagates command-center acknowledgements (and third-party snapshots)
// through the DTN.
func (c *Cache) MergeFrom(other *Cache) {
	if other == nil {
		return
	}
	for _, e := range other.entries {
		c.put(e, true)
	}
}

// Stamp is one line of a cache summary: a node and the timestamp of the
// snapshot cached for it.
type Stamp struct {
	Node      model.NodeID
	Timestamp float64
}

// Summary returns the stamp of every cached entry except the command
// center's, valid or stale, sorted by node ID. It is what a gossip partner
// needs to skip entries this cache would ignore (see Novel).
func (c *Cache) Summary() []Stamp {
	out := make([]Stamp, 0, len(c.entries))
	for node, e := range c.entries {
		if !node.IsCommandCenter() {
			out = append(out, Stamp{Node: node, Timestamp: e.Timestamp})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// Novel reports whether e may change the cache of owner, whose Summary is
// sum. It is false exactly when Put(e) would return at once: e describes
// owner, which never caches itself, or e is a non-command-center entry
// stamped no later than the one owner holds for that node. A
// command-center entry is always novel, because its merge is a union that
// the stamp says nothing about; Lacking trims it to the photos owner
// lacks instead.
func Novel(e Entry, owner model.NodeID, sum []Stamp) bool {
	if e.Node == owner {
		return false
	}
	if e.Node.IsCommandCenter() {
		return true
	}
	i := sort.Search(len(sum), func(i int) bool { return sum[i].Node >= e.Node })
	return i == len(sum) || sum[i].Node != e.Node || e.Timestamp > sum[i].Timestamp
}

// Delivered returns the IDs of the photos known to have reached the
// command center — the acknowledgement view of §III-B — sorted and without
// repeats, or nil when the cache holds no command-center entry. The list
// is the cache's own and may be shared with its clones: read-only.
func (c *Cache) Delivered() []model.PhotoID {
	e, ok := c.entries[model.CommandCenter]
	if !ok {
		return nil
	}
	if c.ccSorted == nil {
		c.ccSorted = sortedIDs(e.Photos)
	}
	return c.ccSorted
}

// Lacking returns the photos of a command-center entry whose IDs are not
// in delivered, a strictly increasing ID list (a receiver's Delivered), in
// list order. It returns photos itself when none is delivered.
//
// Putting the trimmed entry changes a cache exactly as putting the whole
// one does, provided the cache's command-center entry still holds every
// photo of delivered. A merge appends the incoming photos its stored list
// lacks, in incoming order, and takes the later stamp, so the photos
// Lacking drops are the ones the merge would skip. The entry only grows:
// eviction and staleness never remove it. A first Put, where no entry is
// stored, has an empty delivered list and so gets the whole list.
func Lacking(photos model.PhotoList, delivered []model.PhotoID) model.PhotoList {
	held := func(p model.Photo) bool {
		_, ok := slices.BinarySearch(delivered, p.ID)
		return ok
	}
	first := slices.IndexFunc(photos, held)
	if first < 0 {
		return photos
	}
	out := slices.Clip(photos[:first])
	for _, p := range photos[first+1:] {
		if !held(p) {
			out = append(out, p)
		}
	}
	return out
}
