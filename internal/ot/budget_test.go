package ot

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"secyan/internal/prf"
	"secyan/internal/transport"
)

// newStreamPair runs one base-OT exchange and derives stream id's
// extension endpoints from it, over a fresh conn pair of their own.
func newStreamPair(t *testing.T, sb *SenderBase, rb *ReceiverBase, id uint32) (*Sender, *Receiver, transport.Conn) {
	t.Helper()
	a, b := transport.Pair()
	t.Cleanup(func() { a.Close(); b.Close() })
	return sb.Sender(a, id), rb.Receiver(b, id), a
}

func newBases(t *testing.T) (*SenderBase, *ReceiverBase) {
	t.Helper()
	a, b := transport.Pair()
	defer a.Close()
	defer b.Close()
	ch := make(chan *SenderBase, 1)
	errCh := make(chan error, 1)
	go func() {
		sb, err := SetupSender(a)
		errCh <- err
		ch <- sb
	}()
	rb, err := SetupReceiver(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	return <-ch, rb
}

// sendBoth runs one direct extension batch of m zero-message pairs.
func sendBoth(snd *Sender, rcv *Receiver, m int) (sErr, rErr error) {
	pairs := make([][2][]byte, m)
	for j := range pairs {
		pairs[j] = [2][]byte{make([]byte, 16), make([]byte, 16)}
	}
	done := make(chan error, 1)
	go func() { done <- snd.Send(pairs) }()
	_, rErr = rcv.Receive(make([]bool, m), 16)
	return <-done, rErr
}

// TestStreamBudgetIsHard pins the per-stream OT budget: a stream may run
// exactly StreamBudget instances; the batch that would exceed it fails
// on both endpoints with a BudgetError before any traffic, and the
// counter never leaves the stream's range (so it can neither alias
// another stream's tweaks nor carry into another prf.Site*).
func TestStreamBudgetIsHard(t *testing.T) {
	sb, rb := newBases(t)
	for _, id := range []uint32{0, 7, math.MaxUint32} {
		snd, rcv, conn := newStreamPair(t, sb, rb, id)
		end := (uint64(id) + 1) * StreamBudget
		if last := otTweak(end - 1); last>>62 != prf.SiteOT>>62 {
			t.Fatalf("stream %d: last tweak %#x leaves the OT site", id, last)
		}
		// Fast-forward both counters to 64 instances before the end.
		snd.idx, rcv.idx = end-64, end-64
		if sErr, rErr := sendBoth(snd, rcv, 64); sErr != nil || rErr != nil {
			t.Fatalf("stream %d: last in-budget batch: %v / %v", id, sErr, rErr)
		}
		before := conn.Stats()
		sErr, rErr := sendBoth(snd, rcv, 1)
		for _, err := range []error{sErr, rErr} {
			var be *BudgetError
			if !errors.As(err, &be) || be.Stream != id || be.Used != StreamBudget || be.Want != 64 {
				t.Fatalf("stream %d: over-budget batch: %v, want a BudgetError", id, err)
			}
		}
		if snd.idx != end || rcv.idx != end {
			t.Fatalf("stream %d: counters moved past the budget: %d / %d, end %d", id, snd.idx, rcv.idx, end)
		}
		if conn.Stats() != before {
			t.Fatalf("stream %d: refused batch touched the wire", id)
		}
		if err := snd.FillRandom(1, 16); !errors.As(err, new(*BudgetError)) {
			t.Fatalf("stream %d: over-budget fill: %v", id, err)
		}
		if err := rcv.FillRandom(1, 16); !errors.As(err, new(*BudgetError)) {
			t.Fatalf("stream %d: over-budget fill: %v", id, err)
		}
	}
}

// TestDerivedStreamsIndependent: streams derived from one base OT
// share the sender's s but not a column PRG stream, and their OTs at
// the same instance index use different pads.
func TestDerivedStreamsIndependent(t *testing.T) {
	sb, rb := newBases(t)
	s1, r1, _ := newStreamPair(t, sb, rb, 1)
	s2, r2, _ := newStreamPair(t, sb, rb, 2)
	if !bytes.Equal(s1.sRow[:], s2.sRow[:]) {
		t.Fatal("streams of one base disagree on s")
	}
	// Stream 0 of a base is the plain NewPRG stream of the seed.
	s0, _, _ := newStreamPair(t, sb, rb, 0)
	if !bytes.Equal(s0.streams[0].Bytes(32), prf.NewPRG(sb.seeds[0]).Bytes(32)) {
		t.Fatal("stream 0 does not reproduce the base seed's PRG")
	}
	if bytes.Equal(s1.streams[0].Bytes(64), s2.streams[0].Bytes(64)) {
		t.Fatal("two streams share a column PRG stream")
	}
	if bytes.Equal(r1.streams0[3].Bytes(64), r2.streams0[3].Bytes(64)) {
		t.Fatal("two receiver streams share a column PRG stream")
	}
	// Fresh streams for the pad comparison (the PRGs above advanced).
	s1, r1, _ = newStreamPair(t, sb, rb, 1)
	s2, r2, _ = newStreamPair(t, sb, rb, 2)
	fillBoth(t, s1, r1, 64, 16)
	fillBoth(t, s2, r2, 64, 16)
	p1, p2 := s1.pool.batches[0], s2.pool.batches[0]
	for j := 0; j < 64; j++ {
		if bytes.Equal(p1.r0[16*j:16*j+16], p2.r0[16*j:16*j+16]) || bytes.Equal(p1.r1[16*j:16*j+16], p2.r1[16*j:16*j+16]) {
			t.Fatalf("instance %d: equal pads on streams 1 and 2", j)
		}
	}
}
