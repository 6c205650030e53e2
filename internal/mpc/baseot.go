package mpc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"secyan/internal/ot"
	"secyan/internal/transport"
)

// This file holds the base-OT half of OT extension at session scope.
// The κ Naor–Pinkas base OTs of one direction are public-key work
// (~0.5 s), so they run once per session and direction, on first use;
// every stream then derives its own IKNP Sender/Receiver from the
// shared result (ot.SenderBase.Sender, ot.ReceiverBase.Receiver), keyed
// by its stream id. A bare Party is stream 0 of an implicit session of
// its own, whose base OTs run inline on the party's conn.

// Reserved stream ids: the top of the uint32 space carries a session's
// base-OT exchanges, one stream per direction. PartyOn and OpenStream
// refuse them.
const (
	// BaseOTStreamAlice carries the base OTs of the direction in which
	// Alice is the OT-extension sender.
	BaseOTStreamAlice uint32 = math.MaxUint32
	// BaseOTStreamBob carries the direction in which Bob sends.
	BaseOTStreamBob uint32 = math.MaxUint32 - 1
)

// baseOTStream returns the reserved stream id of the direction in which
// sender is the OT-extension sender.
func baseOTStream(sender Role) uint32 { return math.MaxUint32 - uint32(sender) }

// ErrReservedStream reports an attempt to open a stream id reserved for
// the session's base OTs.
var ErrReservedStream = errors.New("mpc: stream id reserved for the session's base OTs")

// BaseOTError reports a failed base-OT exchange. The failure is sticky:
// every query waiting on the direction, and every later one, gets the
// same error.
type BaseOTError struct {
	Sender Role // the OT-extension sender of the failed direction
	Err    error
}

func (e *BaseOTError) Error() string {
	return fmt.Sprintf("mpc: base OT (%v sends): %v", e.Sender, e.Err)
}

func (e *BaseOTError) Unwrap() error { return e.Err }

// baseDir is one direction's base-OT gate on one endpoint. Exactly one
// of snd/rcv is set on success: snd when this endpoint is the
// direction's extension sender.
type baseDir struct {
	once sync.Once
	done chan struct{}
	snd  *ot.SenderBase
	rcv  *ot.ReceiverBase
	err  error
}

// baseOTs is the base-OT state of one endpoint of a (possibly implicit)
// session, indexed by the direction's sending role.
type baseOTs struct {
	role Role
	dirs [2]baseDir
	// open returns the conn a direction's exchange runs on, and async
	// says whether the exchange runs on its own goroutine (a session's
	// reserved streams) or inline in the first caller (a bare party's
	// own conn, where it must keep its place in the message order).
	open  func(sender Role) (transport.Conn, error)
	async bool
}

func newBaseOTs(role Role, open func(Role) (transport.Conn, error), async bool) *baseOTs {
	b := &baseOTs{role: role, open: open, async: async}
	for i := range b.dirs {
		b.dirs[i].done = make(chan struct{})
	}
	return b
}

// start triggers the direction's exchange if nobody has yet.
func (b *baseOTs) start(sender Role) {
	d := &b.dirs[sender]
	d.once.Do(func() {
		if b.async {
			go b.exchange(sender)
		} else {
			b.exchange(sender)
		}
	})
}

// exchange runs the direction's κ base OTs and opens its gate.
func (b *baseOTs) exchange(sender Role) {
	d := &b.dirs[sender]
	defer close(d.done)
	c, err := b.open(sender)
	if err == nil {
		if b.role == sender {
			d.snd, err = ot.SetupSender(c)
		} else {
			d.rcv, err = ot.SetupReceiver(c)
		}
		if b.async {
			c.Close()
		}
	}
	if err != nil {
		d.err = &BaseOTError{Sender: sender, Err: err}
	}
}

// wait triggers the direction if needed and blocks until its gate
// opens, ctx ends or the waiting party's stream is gone (see
// session.gone). Abandoning the wait leaves a session's exchange
// running under the session's lifetime.
func (b *baseOTs) wait(ctx context.Context, sender Role, st *session) (*baseDir, error) {
	b.start(sender)
	d := &b.dirs[sender]
	gone, cause := st.gone()
	select {
	case <-d.done:
	case <-ctx.Done():
	case <-gone:
	}
	select {
	case <-d.done:
	default:
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, cause()
	}
	if d.err != nil {
		return nil, d.err
	}
	return d, nil
}

// gone returns the end signal of the party's stream and its cause, when
// its conn has them (a mux stream not hidden by a wrapper). Otherwise
// the channel is nil and never fires: a bare party's exchange runs
// inline on its own conn, and a wrapped stream relies on ctx. A peer
// whose half gave up before joining the base OTs (say, its query failed
// validation and closed the stream) thus fails this wait instead of
// leaving it to the session's end.
func (st *session) gone() (<-chan struct{}, func() error) {
	if g, ok := st.raw.(interface {
		Gone() (<-chan struct{}, func() error)
	}); ok {
		return g.Gone()
	}
	return nil, nil
}

// EnsureOT makes the base OTs of the OT-extension directions in need
// (indexed by the sending role) available to this party, running them
// if nobody has yet. On a session stream both directions run at once on
// their reserved streams and this party's own conn carries nothing; a
// bare party runs them in role order on its conn, where they are the
// first traffic of the directions' first use. The peer must ensure the
// same directions at the matching protocol point.
func (p *Party) EnsureOT(ctx context.Context, need [2]bool) error {
	st := p.state()
	b := st.base
	if b.async {
		for _, r := range []Role{Alice, Bob} {
			if need[r] {
				b.start(r)
			}
		}
	}
	for _, r := range []Role{Alice, Bob} {
		if need[r] {
			if _, err := b.wait(ctx, r, st); err != nil {
				return err
			}
		}
	}
	return nil
}
