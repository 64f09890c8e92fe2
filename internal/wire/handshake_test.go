package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
)

// handshake runs Negotiate on both ends of a pipe and returns both sides'
// negotiated parameters.
func handshake(t *testing.T, pi, pr Params) (Params, Params) {
	t.Helper()
	ca, cb := net.Pipe()
	t.Cleanup(func() { _ = ca.Close(); _ = cb.Close() })
	type res struct {
		p   Params
		h   Hello
		err error
	}
	ch := make(chan res, 1)
	go func() {
		p, h, err := Negotiate(cb, Hello{Node: 2, Nonce: 22}, pr, false)
		ch <- res{p, h, err}
	}()
	ni, hr, err := Negotiate(ca, Hello{Node: 1, Nonce: 11}, pi, true)
	if err != nil {
		t.Fatalf("initiator: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("responder: %v", r.err)
	}
	if hr.Node != 2 || r.h.Node != 1 {
		t.Fatalf("identities: initiator saw %v, responder saw %v", hr.Node, r.h.Node)
	}
	return ni, r.p
}

func TestNegotiateBothV2(t *testing.T) {
	ni, nr := handshake(t,
		Params{ChunkSize: 128 << 10, Window: 16, Resume: true},
		Params{ChunkSize: 64 << 10, Window: 4, Resume: true})
	want := Params{ChunkSize: 64 << 10, Window: 4, Resume: true}
	if ni != want || nr != want {
		t.Fatalf("negotiated initiator %+v, responder %+v; want the minimum %+v", ni, nr, want)
	}
}

func TestNegotiateResumeRequiresBoth(t *testing.T) {
	ni, nr := handshake(t, Params{Resume: true}, Params{})
	if ni.Resume || nr.Resume {
		t.Fatal("resume needs both sides")
	}
	if ni.ChunkSize != DefaultChunkSize || ni.Window != DefaultWindow {
		t.Fatalf("zero params did not take the defaults: %+v", ni)
	}
}

// baseHello is the 44-byte hello body the retired whole-photo protocol
// spoke: the identity block without the transfer parameters.
func baseHello() []byte {
	return Hello{Node: 0, Nonce: 5}.appendBody(nil)[:44]
}

// helloVersion is a hello body as a peer speaking version v sends it.
func helloVersion(v uint16) []byte {
	b := Hello{Node: 0, Nonce: 5}.appendBody(nil)
	binary.LittleEndian.PutUint16(b[44:], v)
	return b
}

// TestNegotiateMixedVersions pins that a peer speaking a retired version —
// the 44-byte hello, version 2 without the summary round, or version 3
// whose summary lists no delivered photos — is rejected in either role,
// never downgraded to.
func TestNegotiateMixedVersions(t *testing.T) {
	for _, old := range []struct {
		name  string
		hello []byte
	}{{"v1", baseHello()}, {"v2", helloVersion(2)}, {"v3", helloVersion(3)}} {
		t.Run(old.name+" initiator", func(t *testing.T) {
			ca, cb := net.Pipe()
			defer func() { _ = ca.Close(); _ = cb.Close() }()
			go func() { _, _ = ca.Write(reframe(MsgHello, old.hello)) }()
			if _, _, err := Negotiate(cb, Hello{Node: 2}, Params{}, false); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("responder err = %v, want ErrBadMessage", err)
			}
		})
		t.Run(old.name+" responder", func(t *testing.T) {
			ca, cb := net.Pipe()
			defer func() { _ = ca.Close(); _ = cb.Close() }()
			go func() {
				if _, err := Read(cb); err == nil {
					_, _ = cb.Write(reframe(MsgHello, old.hello))
				}
			}()
			if _, _, err := Negotiate(ca, Hello{Node: 1}, Params{}, true); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("initiator err = %v, want ErrBadMessage", err)
			}
		})
	}
}

func TestNegotiateRejectsNonHello(t *testing.T) {
	ca, cb := net.Pipe()
	defer func() { _ = ca.Close(); _ = cb.Close() }()
	done := make(chan error, 1)
	go func() {
		_, _, err := Negotiate(ca, Hello{Node: 1}, Params{}, true)
		done <- err
	}()
	if _, err := Read(cb); err != nil {
		t.Fatal(err)
	}
	if err := Write(cb, Bye{}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrHandshake) {
		t.Fatalf("err = %v, want ErrHandshake", err)
	}
}

// remoteSide is a ReadWriter whose reads replay a prepared remote frame and
// whose writes record what the local side sends.
type remoteSide struct {
	in, out bytes.Buffer
}

func (r *remoteSide) Read(b []byte) (int, error)  { return r.in.Read(b) }
func (r *remoteSide) Write(b []byte) (int, error) { return r.out.Write(b) }

// negotiateAgainst runs Negotiate in one role against a remote whose hello
// is h: sent as a Hello when the local side responds, as the HelloAck when
// it initiates. It also returns every byte the local side wrote after its
// own hello.
func negotiateAgainst(t testing.TB, local Params, h Hello, initiator bool) (Params, []byte, error) {
	t.Helper()
	rw := &remoteSide{}
	var remote Message = h
	if initiator {
		remote = HelloAck{Hello: h}
	}
	if err := Write(&rw.in, remote); err != nil {
		t.Fatal(err)
	}
	neg, _, err := Negotiate(rw, Hello{Node: 1}, local, initiator)
	written := rw.out.Bytes()
	if initiator {
		if _, rerr := Read(&rw.out); rerr != nil {
			t.Fatalf("initiator's own hello: %v", rerr)
		}
		written = rw.out.Bytes()
	}
	return neg, written, err
}

// TestNegotiateRefusesTinyChunks pins the chunk-size floor in both roles: a
// remote hello or hello ack below MinChunkSize is refused with
// ErrHandshake, and a responder refuses before it answers. At the floor the
// handshake goes through.
func TestNegotiateRefusesTinyChunks(t *testing.T) {
	for _, initiator := range []bool{false, true} {
		for _, size := range []uint32{0, 1, MinChunkSize - 1} {
			h := Hello{Node: 0, ChunkSize: size, Window: DefaultWindow}
			_, written, err := negotiateAgainst(t, Params{}, h, initiator)
			if !errors.Is(err, ErrHandshake) {
				t.Fatalf("initiator=%v, remote chunk size %d: err = %v, want ErrHandshake", initiator, size, err)
			}
			if len(written) != 0 {
				t.Fatalf("initiator=%v, remote chunk size %d: answered with %d bytes", initiator, size, len(written))
			}
		}
		h := Hello{Node: 0, ChunkSize: MinChunkSize, Window: DefaultWindow}
		neg, _, err := negotiateAgainst(t, Params{}, h, initiator)
		if err != nil || neg.ChunkSize != MinChunkSize {
			t.Fatalf("initiator=%v at the floor: %+v, %v", initiator, neg, err)
		}
	}
}
