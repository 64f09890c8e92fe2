package peer

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"time"

	"photodtn/internal/obs"
)

// ErrTimeout reports that a frame or contact deadline expired. A stalled or
// unresponsive remote ends the contact with this error instead of hanging
// the radio forever.
var ErrTimeout = errors.New("peer: deadline exceeded")

// ErrRetriesExhausted reports that a dialled contact failed transiently on
// every configured attempt (see WithRetry). The final attempt's error is in
// the chain; callers schedule the next contact opportunity instead of
// retrying immediately.
var ErrRetriesExhausted = errors.New("peer: contact retries exhausted")

// ErrContactRejected reports that a dialled contact failed in a way
// retrying cannot fix — a protocol violation, a checksum mismatch, a
// misbehaving remote. The underlying cause is in the chain.
var ErrContactRejected = errors.New("peer: contact rejected")

// classifyContactErr tags a final (post-retry) contact failure with the
// sentinel callers branch on: transient failures that survived every
// attempt become ErrRetriesExhausted, everything else ErrContactRejected.
// Guard verdicts — a quarantined or rate-limited remote, a message out of
// its round or one a validator rejected — are explicitly non-transient:
// retrying a misbehaving remote cannot help, and the original sentinel
// stays in the chain for errors.Is.
func classifyContactErr(err error) error {
	switch {
	case errors.Is(err, ErrPeerQuarantined),
		errors.Is(err, ErrRateLimited),
		errors.Is(err, ErrProtocolViolation):
		return fmt.Errorf("%w: %w", ErrContactRejected, err)
	case transient(err):
		return fmt.Errorf("%w: %w", ErrRetriesExhausted, err)
	}
	return fmt.Errorf("%w: %w", ErrContactRejected, err)
}

// Hardening defaults. Frame deadlines are on by default: a single stalled
// remote must never wedge a node (the live-peer counterpart of a contact
// that physically ends when the nodes move apart).
const (
	// DefaultFrameTimeout bounds every single frame read/write.
	DefaultFrameTimeout = 30 * time.Second
	// DefaultRetryAttempts is the number of Contact tries (1 = no retry).
	DefaultRetryAttempts = 3
	// DefaultRetryBase is the first backoff delay; it doubles per attempt.
	DefaultRetryBase = 50 * time.Millisecond
	// DefaultRetryMax caps the exponential backoff.
	DefaultRetryMax = 2 * time.Second
)

// WithFrameTimeout bounds every individual frame read/write during a
// contact. Zero disables per-frame deadlines (not recommended outside
// tests with transports that lack deadline support).
func WithFrameTimeout(d time.Duration) Option {
	return optionFunc(func(p *Peer) { p.frameTimeout = d })
}

// WithRetry configures Contact's capped exponential backoff for transient
// dial and IO failures: at most attempts tries, sleeping base, 2*base, ...
// capped at max between them. attempts <= 1 disables retrying.
func WithRetry(attempts int, base, max time.Duration) Option {
	return optionFunc(func(p *Peer) {
		p.retryAttempts = attempts
		p.retryBase = base
		p.retryMax = max
	})
}

// WithContextDialer replaces the TCP dialer used by Contact (tests inject
// failing or in-memory transports through this). DialContext passes its
// context through, so connection establishment aborts when the caller
// cancels.
func WithContextDialer(dial func(ctx context.Context, addr string) (net.Conn, error)) Option {
	return optionFunc(func(p *Peer) { p.dial = dial })
}

// ContactErrors returns how many contacts ended in an error since the peer
// was created. Serve keeps accepting after a failed contact — one
// misbehaving remote must not take the node offline — so this counter is
// the only trace such contacts leave.
func (p *Peer) ContactErrors() int64 {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.contactErrs
}

// LastContactError returns the most recent contact error seen by Serve or
// Contact (nil if none).
func (p *Peer) LastContactError() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.lastContactErr
}

func (p *Peer) noteContactError(err error) {
	p.errMu.Lock()
	p.contactErrs++
	p.lastContactErr = err
	p.errMu.Unlock()
	p.cAborts.Inc()
	if p.obsv != nil {
		p.obsv.Emit(obs.Event{
			Time: p.clock(), Kind: obs.EvSessionAbort,
			A: int32(p.id), B: obs.NoNode, Photo: obs.NoPhoto,
		})
	}
}

// deadliner is the subset of net.Conn needed for per-frame deadlines.
// net.Pipe and TCP connections both implement it.
type deadliner interface {
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// timedConn enforces a per-frame timeout by refreshing the connection
// deadline before every read and write. It translates deadline errors to
// ErrTimeout so callers can classify them.
type timedConn struct {
	rw    io.ReadWriter
	dl    deadliner
	frame time.Duration
	// stopped is raised by interrupt: reads no longer refresh the
	// deadline, so the pending read and every later one fail at once.
	stopped atomic.Bool
}

// newTimedConn wraps rw with deadline enforcement. Transports without
// deadline support (plain io.ReadWriter pairs) are returned unchanged —
// the minimal protection degrades gracefully rather than failing.
func newTimedConn(rw io.ReadWriter, frame time.Duration) io.ReadWriter {
	dl, ok := rw.(deadliner)
	if !ok || frame <= 0 {
		return rw
	}
	return &timedConn{rw: rw, dl: dl, frame: frame}
}

func (c *timedConn) Read(b []byte) (int, error) {
	_ = c.dl.SetReadDeadline(time.Now().Add(c.frame))
	if c.stopped.Load() {
		// An interrupt may have landed before the refresh above.
		_ = c.dl.SetReadDeadline(expired)
	}
	n, err := c.rw.Read(b)
	return n, timeoutErr(err)
}

// interrupt fails the pending read and every later one.
func (c *timedConn) interrupt() {
	c.stopped.Store(true)
	_ = c.dl.SetReadDeadline(expired)
}

// expired is a deadline already in the past.
var expired = time.Unix(1, 0)

// interruptRead makes a read pending on a contact's transport — and every
// later one — fail promptly, so that a goroutine reading it can be joined
// once the contact's write side has failed. A transport without read
// deadlines is left alone: its reads end when the broken link closes.
func interruptRead(rw io.ReadWriter) {
	switch c := rw.(type) {
	case *timedConn:
		c.interrupt()
	case *readAheadConn:
		interruptRead(c.conn)
	case deadliner:
		_ = c.SetReadDeadline(expired)
	}
}

func (c *timedConn) Write(b []byte) (int, error) {
	_ = c.dl.SetWriteDeadline(time.Now().Add(c.frame))
	n, err := c.rw.Write(b)
	return n, timeoutErr(err)
}

// timeoutErr maps deadline expiry onto ErrTimeout, preserving the original
// error in the chain.
func timeoutErr(err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.Is(err, os.ErrDeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	return err
}

// transient reports whether an error is worth retrying: timeouts and the
// connection-level failures a flaky radio link produces. Protocol
// violations and checksum failures are not transient — retrying a
// misbehaving remote immediately is pointless.
func transient(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrTimeout), errors.Is(err, os.ErrDeadlineExceeded):
		return true
	case errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EPIPE):
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// transientAccept reports whether a listener Accept failure is transient —
// a per-connection or resource-pressure hiccup the serve loop should ride
// out with backoff rather than take the whole peer offline. Everything
// else (notably net.ErrClosed and context cancellation) ends the loop.
func transientAccept(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.EMFILE),
		errors.Is(err, syscall.ENFILE),
		errors.Is(err, syscall.EINTR):
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
