// Command photodtn-peer runs one live framework node speaking the wire
// protocol — the repository's stand-in for the paper's Android prototype,
// runnable as a long-lived process.
//
// Usage:
//
//	photodtn-peer -id N [-state-dir DIR] [-listen ADDR] [-dial ADDR]
//	              [-photos N] [-storage-mb MB] [-snapshot-every N] [-seed S]
//	              [-max-contacts N] [-chunk-size BYTES] [-no-resume]
//	              [-max-peer-rate R] [-quarantine-ttl D]
//
// With -listen the peer serves contacts until interrupted, handling up to
// -max-contacts connections concurrently (excess accepts are rejected with
// a clean abort); with -dial it contacts a remote peer once (both may be
// combined: serve after an initial contact). The -photos flag captures
// synthetic photos through the simulated phone pipeline before any contact.
//
// With -state-dir the peer is durable: photo admissions and contact
// outcomes journal to the directory, and a restarted process recovers
// exactly the state it crashed with — it re-requests nothing it already
// holds and re-reports no delivery it already acknowledged (DESIGN.md §7).
// On shutdown the journal is compacted into a snapshot.
//
// Passing -max-peer-rate and/or -quarantine-ttl arms the guard (DESIGN.md
// §12): inbound messages are semantically validated, a message out of its
// protocol round is scored, each remote gets a contact-rate budget, and repeat
// offenders are quarantined for the TTL (journaled with -state-dir, so a
// restart keeps refusing them).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/signal"
	"syscall"

	"photodtn"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "photodtn-peer:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("photodtn-peer", flag.ContinueOnError)
	var (
		id          = fs.Int("id", 1, "node ID (0 = command center)")
		stateDir    = fs.String("state-dir", "", "journal directory; state survives restarts (empty = memory only)")
		listen      = fs.String("listen", "", "serve contacts on this address until interrupted")
		dial        = fs.String("dial", "", "contact the remote peer at this address")
		photos      = fs.Int("photos", 0, "capture this many synthetic photos before contacting")
		storageMB   = fs.Int64("storage-mb", 64, "storage capacity in MB")
		snapEvery   = fs.Int("snapshot-every", 0, "checkpoint the journal every N contacts (0 = default)")
		seed        = fs.Int64("seed", 1, "seed for the nonce stream and the synthetic camera")
		maxContacts = fs.Int("max-contacts", 0, "serve at most N contacts concurrently (0 = 4×GOMAXPROCS)")
		chunkSize   = fs.Int("chunk-size", 0, "transfer chunk size in bytes (0 = default 256 KiB)")
		noResume    = fs.Bool("no-resume", false, "discard partial transfers at contact end instead of resuming later")
		maxPeerRate = fs.Float64("max-peer-rate", 0, "arm the guard: per-peer contact budget in contacts/sec (0 = guard off unless -quarantine-ttl is set)")
		quarTTL     = fs.Duration("quarantine-ttl", 0, "arm the guard: quarantine repeat offenders for this long (0 = guard off unless -max-peer-rate is set)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen == "" && *dial == "" {
		return errors.New("nothing to do: pass -listen and/or -dial")
	}

	// The demo world every example shares: one PoI (the town hall),
	// effective angle 30°.
	hall := photodtn.NewPoI(0, photodtn.Vec{X: 300, Y: 300})
	m := photodtn.NewMap([]photodtn.PoI{hall}, photodtn.Radians(30))
	nodeID := photodtn.NodeID(*id)

	opts := []photodtn.PeerOption{
		photodtn.WithSeed(*seed),
		photodtn.WithTransfer(photodtn.TransferConfig{
			ChunkSize: *chunkSize,
			Resume:    !*noResume,
		}),
	}
	if *snapEvery > 0 {
		opts = append(opts, photodtn.WithSnapshotEvery(*snapEvery))
	}
	if *maxContacts > 0 {
		opts = append(opts, photodtn.WithMaxContacts(*maxContacts))
	}
	if *maxPeerRate > 0 || *quarTTL > 0 {
		opts = append(opts, photodtn.WithGuard(photodtn.GuardConfig{
			MaxContactRate: *maxPeerRate,
			QuarantineTTL:  quarTTL.Seconds(),
		}))
	}
	var p *photodtn.Peer
	if *stateDir != "" {
		var err error
		p, err = photodtn.OpenPeer(*stateDir, nodeID, m, *storageMB<<20, opts...)
		if err != nil {
			return err
		}
		defer func() {
			if err := p.Checkpoint(); err != nil {
				fmt.Fprintf(stdout, "checkpoint failed: %v\n", err)
			}
			_ = p.Close()
		}()
		if st := p.JournalStats(); st.Recovered {
			fmt.Fprintf(stdout,
				"recovered %d photos from %s (%d commits, %d records replayed, %d torn bytes dropped)\n",
				len(p.Photos()), *stateDir, st.Commits, st.RecordsReplayed, st.TruncatedBytes)
		}
	} else {
		p = photodtn.NewPeer(nodeID, m, *storageMB<<20, opts...)
	}

	if *photos > 0 {
		if err := capture(p, hall, nodeID, *photos, *seed, stdout); err != nil {
			return err
		}
	}

	if *dial != "" {
		if err := p.DialContext(ctx, *dial); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "contacted %s; holding %d photos, coverage %v\n",
			*dial, len(p.Photos()), p.Coverage())
	}

	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "peer %v listening on %s\n", nodeID, l.Addr())
		if err := p.ServeContext(ctx, l); err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
	}

	if *stateDir != "" {
		st := p.JournalStats()
		fmt.Fprintf(stdout, "journal: %d contacts durable in %s\n", st.Commits, *stateDir)
	}
	if ts := p.TransferStats(); ts.ChunksSent > 0 || ts.ChunksReceived > 0 || ts.Partials > 0 {
		fmt.Fprintf(stdout,
			"transfer: %d chunks sent, %d received, %d resumed (%d bytes saved), %d photos finished across contacts, %d partials held (%d bytes), %d bytes wasted\n",
			ts.ChunksSent, ts.ChunksReceived, ts.ChunksResumed, ts.ResumedBytes,
			ts.PhotosResumed, ts.Partials, ts.FragmentBytes, ts.WastedBytes)
	}
	if p.GuardEnabled() {
		gs := p.GuardStats()
		fmt.Fprintf(stdout,
			"guard: %d violations, %d contacts shed, %d quarantines imposed, %d active\n",
			gs.Violations, gs.ShedContacts, gs.QuarantineEvents, gs.Quarantined)
	}
	return nil
}

// capture shoots n photos of the PoI from standpoints spread around it,
// through the full simulated phone pipeline. Photos a recovered peer
// already holds (same deterministic IDs) are skipped, not duplicated.
func capture(p *photodtn.Peer, poi photodtn.PoI, id photodtn.NodeID, n int, seed int64, stdout io.Writer) error {
	phone, err := photodtn.NewPhone(id, photodtn.DefaultPhoneConfig(), seed)
	if err != nil {
		return err
	}
	held := p.Photos()
	taken := 0
	for i := 0; i < n; i++ {
		angle := 2 * math.Pi * float64(i) / float64(n)
		phone.MoveTo(photodtn.Vec{
			X: poi.Location.X + 80*math.Cos(angle),
			Y: poi.Location.Y + 80*math.Sin(angle),
		})
		phone.AimAt(poi.Location)
		photo := phone.Capture(float64(i))
		if held.Contains(photo.ID) {
			continue // already durable from a previous incarnation
		}
		if err := p.AddPhoto(photo); err != nil {
			return err
		}
		taken++
	}
	fmt.Fprintf(stdout, "captured %d photos (%d already held)\n", taken, n-taken)
	return nil
}
