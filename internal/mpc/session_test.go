package mpc

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"secyan/internal/share"
	"secyan/internal/transport"
)

// TestSessionConcurrentShareExchanges runs several independent
// share/reveal round trips concurrently over one connection, each on
// its own stream-scoped Party.
func TestSessionConcurrentShareExchanges(t *testing.T) {
	sa, sb := SessionPair(share.Ring{Bits: 32}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()

	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*n)
	for i := uint32(0); i < n; i++ {
		pa, err := sa.PartyOn(i, PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sb.PartyOn(i, PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		vals := []uint64{uint64(i) + 1, uint64(i) + 2, uint64(i) + 3}
		wg.Add(2)
		go func(p *Party, vals []uint64) {
			defer wg.Done()
			defer p.Conn.Close()
			mine, err := p.ShareToPeer(vals)
			if err != nil {
				errs <- err
				return
			}
			if err := p.RevealToPeer(mine); err != nil {
				errs <- err
			}
		}(pa, vals)
		go func(p *Party, want []uint64) {
			defer wg.Done()
			defer p.Conn.Close()
			mine, err := p.RecvShares(len(want))
			if err != nil {
				errs <- err
				return
			}
			got, err := p.RecvReveal(mine)
			if err != nil {
				errs <- err
				return
			}
			for j := range want {
				if got[j] != want[j] {
					errs <- errors.New("reconstructed value mismatch")
					return
				}
			}
		}(pb, vals)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := sa.Stats(); st.Streams != n {
		t.Fatalf("streams opened: %d", st.Streams)
	}
}

// TestSessionNextPartySequentialIDs checks the auto-id allocator.
func TestSessionNextPartySequentialIDs(t *testing.T) {
	sa, sb := SessionPair(share.Ring{}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	for want := uint32(0); want < 3; want++ {
		_, ida, err := sa.NextParty(PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		_, idb, err := sb.NextParty(PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if ida != want || idb != want {
			t.Fatalf("ids %d/%d want %d", ida, idb, want)
		}
	}
}

// TestSessionStreamDeadlineIsolated: a stream past its deadline fails
// with context-style errors while a sibling keeps working.
func TestSessionStreamDeadlineIsolated(t *testing.T) {
	sa, sb := SessionPair(share.Ring{}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	pa, err := sa.PartyOn(0, PartyOpts{Deadline: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.Conn.Recv(); err == nil {
		t.Fatal("recv survived stream deadline")
	} else {
		var se *transport.StreamError
		if !errors.As(err, &se) || se.Stream != 0 {
			t.Fatalf("deadline error not stream-labeled: %v", err)
		}
	}
	p2a, err := sa.PartyOn(1, PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	p2b, err := sb.PartyOn(1, PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p2b.RecvShares(2)
		done <- err
	}()
	if _, err := p2a.ShareToPeer([]uint64{5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("sibling stream after deadline: %v", err)
	}
}

// TestSessionWrapStreamHook: the fault-injection hook sees each stream.
func TestSessionWrapStreamHook(t *testing.T) {
	ca, cb := transport.Pair()
	var wrapped []uint32
	var mu sync.Mutex
	sa := NewSession(Alice, ca, share.Ring{}, SessionConfig{
		WrapStream: func(id uint32, c transport.Conn) transport.Conn {
			mu.Lock()
			wrapped = append(wrapped, id)
			mu.Unlock()
			return c
		},
	})
	sb := NewSession(Bob, cb, share.Ring{}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	if _, err := sa.PartyOn(0, PartyOpts{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.PartyOn(5, PartyOpts{}); err != nil {
		t.Fatal(err)
	}
	if len(wrapped) != 2 || wrapped[0] != 0 || wrapped[1] != 5 {
		t.Fatalf("wrap hook saw %v", wrapped)
	}
}

// TestSessionReservedStreamIDs: the base-OT stream ids are not for
// queries or control channels.
func TestSessionReservedStreamIDs(t *testing.T) {
	sa, sb := SessionPair(share.Ring{}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	for _, id := range []uint32{BaseOTStreamAlice, BaseOTStreamBob} {
		if _, err := sa.PartyOn(id, PartyOpts{}); !errors.Is(err, ErrReservedStream) {
			t.Errorf("PartyOn(%d): %v, want ErrReservedStream", id, err)
		}
		if _, err := sa.OpenStream(id, PartyOpts{}); !errors.Is(err, ErrReservedStream) {
			t.Errorf("OpenStream(%d): %v, want ErrReservedStream", id, err)
		}
	}
	if st := sa.Stats(); st.Streams != 0 {
		t.Fatalf("refused ids opened %d streams", st.Streams)
	}
}

// otRoundTrip runs one small OT batch from a to b on fresh streams id.
func otRoundTrip(t *testing.T, sa, sb *Session, id uint32) {
	t.Helper()
	pa, err := sa.PartyOn(id, PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sb.PartyOn(id, PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer pa.Conn.Close()
	defer pb.Conn.Close()
	pairs := [][2][]byte{{[]byte("zero-zero-zero-0"), []byte("one-one-one-one1")}}
	done := make(chan error, 1)
	go func() {
		snd, err := pa.OTSender()
		if err == nil {
			err = snd.Send(pairs)
		}
		done <- err
	}()
	rcv, err := pb.OTReceiver()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rcv.Receive([]bool{true}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if string(got[0]) != string(pairs[0][1]) {
		t.Fatalf("OT delivered %q", got[0])
	}
}

// TestSessionBaseOTSurvivesCancelledTrigger: the query that triggers a
// session's base OTs may give up waiting; the exchange itself runs
// under the session's lifetime and serves every later stream.
func TestSessionBaseOTSurvivesCancelledTrigger(t *testing.T) {
	sa, sb := SessionPair(share.Ring{}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	pa, err := sa.PartyOn(0, PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	need := [2]bool{true, true}
	if err := pa.EnsureOT(ctx, need); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled trigger: %v, want context.Canceled", err)
	}
	pa.Conn.Close()
	// Bob's side joins later, from another stream; Alice's exchange,
	// started by the cancelled query, completes it.
	pb, err := sb.PartyOn(1, PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Conn.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if err := pb.EnsureOT(ctx2, need); err != nil {
		t.Fatalf("peer side of the session setup: %v", err)
	}
	otRoundTrip(t, sa, sb, 2)
	otRoundTrip(t, sb, sa, 3)
	if sa.Err() != nil || sb.Err() != nil {
		t.Fatalf("session failed: %v / %v", sa.Err(), sb.Err())
	}
}

// TestSessionBaseOTFailureIsSticky: when a direction's base-OT exchange
// fails — here the peer closes one reserved stream and sends a
// wrong-length message on the other — every query waiting on it and
// every later one gets the same typed error, and none hangs.
func TestSessionBaseOTFailureIsSticky(t *testing.T) {
	ca, cb := transport.Pair()
	sa := NewSession(Alice, ca, share.Ring{}, SessionConfig{})
	defer sa.Close()
	peer := transport.NewMux(cb, transport.MuxConfig{})
	defer peer.Close()

	const n = 4
	errs := make(chan error, n)
	for i := uint32(0); i < n; i++ {
		p, err := sa.PartyOn(i, PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		go func() { errs <- p.EnsureOT(context.Background(), [2]bool{true, true}) }()
	}
	// Alice sends in the first direction, so she is its base-OT
	// receiver and waits for the peer's group element: the peer hangs
	// up instead. In the second she is the base-OT sender and waits
	// for κ public keys: the peer sends five bytes.
	c0, err := peer.Open(BaseOTStreamAlice)
	if err != nil {
		t.Fatal(err)
	}
	c0.Close()
	c1, err := peer.Open(BaseOTStreamBob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := c1.Send([]byte("short")); err != nil {
		t.Fatal(err)
	}

	var first *BaseOTError
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			var be *BaseOTError
			if !errors.As(err, &be) {
				t.Fatalf("waiting query %d: %v, want a BaseOTError", i, err)
			}
			if first == nil {
				first = be
			} else if be != first {
				t.Fatalf("waiting query %d got %v, others %v", i, be, first)
			}
		case <-time.After(time.Minute):
			t.Fatal("a query waiting on a failed setup hung")
		}
	}
	if first.Sender != Alice || !errors.Is(first, transport.ErrClosed) {
		t.Fatalf("first failing direction: %v", first)
	}
	// Later queries fail the same way at once, per direction.
	p, err := sa.PartyOn(n, PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.OTSender(); !errors.As(err, new(*BaseOTError)) || err != error(first) {
		t.Fatalf("later OTSender: %v, want %v", err, first)
	}
	_, err = p.OTReceiver()
	var be *BaseOTError
	if !errors.As(err, &be) || be.Sender != Bob || !strings.Contains(be.Error(), "public keys") {
		t.Fatalf("later OTReceiver: %v, want the wrong-length failure of Bob's direction", err)
	}
	if err2 := p.EnsureOT(context.Background(), [2]bool{false, true}); err2 != err {
		t.Fatalf("later EnsureOT: %v, want the same %v", err2, err)
	}
}

// TestSessionBaseOTWaitEndsWhenPeerLeaves: a query whose peer gives up
// before joining the session's base OTs (e.g. its half failed
// validation and closed the stream) fails instead of waiting for the
// session to end.
func TestSessionBaseOTWaitEndsWhenPeerLeaves(t *testing.T) {
	sa, sb := SessionPair(share.Ring{}, SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	pa, err := sa.PartyOn(0, PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sb.PartyOn(0, PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- pa.EnsureOT(context.Background(), [2]bool{true, false}) }()
	pb.Conn.Close()
	select {
	case err := <-done:
		var se *transport.StreamError
		if !errors.Is(err, transport.ErrClosed) || !errors.As(err, &se) || se.Stream != 0 {
			t.Fatalf("EnsureOT after the peer left: %v, want stream 0's ErrClosed", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("EnsureOT outlived the peer's stream")
	}
}
