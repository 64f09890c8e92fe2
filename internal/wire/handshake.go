// Negotiate: the handshake half of the wire package.
//
// Photos move as CRC-framed chunks behind a windowed sender and can resume
// a partial transfer in a later contact. The two peers agree on the
// transfer parameters in one round trip:
//
//	initiator                         responder
//	---------                         ---------
//	Hello{chunk, window, resume} --->
//	                             <--- HelloAck{chunk', window', resume'}
//
// The chunk size has a floor, MinChunkSize: a hello or hello ack that would
// take it lower is refused with ErrHandshake, and a refused hello gets no
// answer.
//
// Both hellos carry ProtocolVersion; a peer speaking any other version
// fails the hello decode with ErrBadMessage. There is no downgrade.
// Version 3 opens the metadata round with a MetaSummary from each side, so
// a version-2 peer, which would send Metadata where the summary is due,
// is turned away at the hello instead. Version 4 appends the sender's
// delivered photo IDs to that summary, which a version-3 decoder would
// refuse as trailing bytes.
package wire

import (
	"errors"
	"fmt"
	"io"
)

// ProtocolVersion is the wire protocol version this build speaks. Every
// Hello and HelloAck carries it.
const ProtocolVersion uint16 = 4

// Default transfer parameters.
const (
	// DefaultChunkSize is the default transfer chunk size: 256 KiB.
	DefaultChunkSize = 256 << 10
	// DefaultWindow is the default number of unacknowledged chunks in
	// flight.
	DefaultWindow = 8
	// MinChunkSize is the smallest chunk size a handshake agrees to:
	// 4 KiB. Every chunk frame carries the photo's full metadata, so a
	// remote that could push the size down to a byte would make the sender
	// frame its payload a byte at a time.
	MinChunkSize = 4 << 10
)

// FlagResume in Hello.Flags advertises that the sender persists partial
// transfers and wants resume offers.
const FlagResume uint8 = 0x01

// ErrHandshake reports an unexpected message during the handshake.
var ErrHandshake = errors.New("wire: handshake violation")

// Params are one side's transfer preferences going into a handshake, and
// the agreed parameters coming out of it. The zero value asks for the
// defaults with resume disabled.
type Params struct {
	// ChunkSize is the preferred chunk size in bytes (0 = default).
	ChunkSize uint32
	// Window is the preferred in-flight chunk window (0 = default).
	Window uint16
	// Resume advertises fragment persistence.
	Resume bool
}

func (p Params) withDefaults() Params {
	if p.ChunkSize == 0 {
		p.ChunkSize = DefaultChunkSize
	}
	if p.Window == 0 {
		p.Window = DefaultWindow
	}
	return p
}

// negotiate folds the remote hello into local params: element-wise minimum
// for chunk size and window; logical AND for resume. It refuses a chunk
// size below MinChunkSize with ErrHandshake.
func negotiate(p Params, h Hello) (Params, error) {
	out := p
	out.ChunkSize = min(p.ChunkSize, h.ChunkSize)
	if out.ChunkSize < MinChunkSize {
		return Params{}, fmt.Errorf("%w: chunk size %d below the minimum %d", ErrHandshake, out.ChunkSize, MinChunkSize)
	}
	if h.Window != 0 && h.Window < out.Window {
		out.Window = h.Window
	}
	out.Resume = p.Resume && h.Flags&FlagResume != 0
	return out, nil
}

// stamp writes the transfer parameters onto a hello.
func stamp(own Hello, p Params) Hello {
	own.ChunkSize = p.ChunkSize
	own.Window = p.Window
	own.Flags = 0
	if p.Resume {
		own.Flags |= FlagResume
	}
	return own
}

// Negotiate performs the handshake over rw and returns the negotiated
// parameters plus the remote's hello. own carries the caller's identity
// fields; its transfer fields are overwritten from p. The initiator writes
// first (the peer layer's turn-taking convention). After it returns, both
// sides speak through Read and Write on the same rw.
func Negotiate(rw io.ReadWriter, own Hello, p Params, initiator bool) (Params, Hello, error) {
	p = p.withDefaults()
	if initiator {
		if err := Write(rw, stamp(own, p)); err != nil {
			return Params{}, Hello{}, err
		}
		msg, err := Read(rw)
		if err != nil {
			return Params{}, Hello{}, err
		}
		ack, ok := msg.(HelloAck)
		if !ok {
			return Params{}, Hello{}, fmt.Errorf("%w: %v in reply to hello", ErrHandshake, msg.Type())
		}
		// The ack already carries the responder's minimum; folding it into
		// our params again clamps a misbehaving responder that tried to
		// negotiate *up*, and refuses one that went below MinChunkSize.
		neg, err := negotiate(p, ack.Hello)
		if err != nil {
			return Params{}, Hello{}, err
		}
		return neg, ack.Hello, nil
	}
	msg, err := Read(rw)
	if err != nil {
		return Params{}, Hello{}, err
	}
	h, ok := msg.(Hello)
	if !ok {
		return Params{}, Hello{}, fmt.Errorf("%w: %v before hello", ErrHandshake, msg.Type())
	}
	// A refused hello gets no answer.
	neg, err := negotiate(p, h)
	if err != nil {
		return Params{}, Hello{}, err
	}
	if err := Write(rw, HelloAck{Hello: stamp(own, neg)}); err != nil {
		return Params{}, Hello{}, err
	}
	return neg, h, nil
}
