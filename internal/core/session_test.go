package core

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"

	"secyan/internal/mpc"
	"secyan/internal/obs"
	"secyan/internal/ot"
	"secyan/internal/relation"
	"secyan/internal/transport"
)

// sessionQueryFor strips the peer's relations from a fully-populated
// query, producing the view one party holds.
func sessionQueryFor(q *Query, rels []*relation.Relation, role mpc.Role) *Query {
	cq := &Query{Output: q.Output}
	for i, in := range q.Inputs {
		ci := in
		if in.Owner == role {
			ci.Rel = rels[i]
		} else {
			ci.Rel = nil
		}
		cq.Inputs = append(cq.Inputs, ci)
	}
	return cq
}

// TestSessionConcurrentTranscriptEquivalence is the session layer's
// core correctness claim: a query running on one of several concurrent
// streams of a multiplexed session produces the exact transcript of the
// same query on a dedicated connection, minus the base OTs. Four
// identical queries interleave over one session; every stream's Stats
// must equal the serial baseline less exactly its base-OT exchange
// (the bare pair's Setup record), and the session's two reserved
// streams must carry exactly ot.SetupCost() each.
func TestSessionConcurrentTranscriptEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q, rels := example11Query(rng, 12, 20)
	want := plaintextReference(t, q, rels)

	// Serial baseline on a bare connection pair: its base OTs run
	// inline on the conn, recorded by the trace's Setup record.
	alice, bob := mpc.Pair(testRing)
	var setupA, setupB *TraceStep
	res, _, err := mpc.Run2PC(alice, bob,
		func(p *mpc.Party) (*relation.Relation, error) {
			r, tr, err := RunContext(context.Background(), p, sessionQueryFor(q, rels, mpc.Alice))
			setupA = tr.Setup
			return r, err
		},
		func(p *mpc.Party) (*relation.Relation, error) {
			r, tr, err := RunContext(context.Background(), p, sessionQueryFor(q, rels, mpc.Bob))
			setupB = tr.Setup
			return r, err
		},
	)
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	compareResults(t, "serial baseline", res, want)
	if setupA == nil || setupA.Bytes != 2*ot.SetupCost() || setupB.Bytes != setupA.Bytes {
		t.Fatalf("bare setup records %+v / %+v, want %d bytes each", setupA, setupB, 2*ot.SetupCost())
	}
	// A stream's transcript is the bare one less the setup's bytes,
	// messages and rounds. One round differs in accounting only: the
	// bare setup ends on Alice's send of the last base-OT ciphertexts,
	// so her first step's send continues that round there, while on a
	// fresh stream it opens one.
	less := func(st transport.Stats, setup *TraceStep, carry int64) (bytes, msgs, rounds int64) {
		return st.TotalBytes() - setup.Bytes, st.MessagesSent + st.MessagesRecv - setup.Messages,
			st.Rounds - setup.Rounds + carry
	}
	wantA, wantB := alice.Conn.Stats(), bob.Conn.Stats()
	alice.Conn.Close()
	bob.Conn.Close()

	// The same query, four times, interleaved over one session.
	sa, sb := mpc.SessionPair(testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()
	const n = 4
	var (
		wg    sync.WaitGroup
		resMu sync.Mutex
		outs  = make([]*relation.Relation, n)
		errs  = make([]error, 2*n)
		stats = make([]transport.Stats, 2*n)
	)
	for i := 0; i < n; i++ {
		pa, err := sa.PartyOn(uint32(i), mpc.PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sb.PartyOn(uint32(i), mpc.PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func(i int, p *mpc.Party) {
			defer wg.Done()
			r, err := Run(p, sessionQueryFor(q, rels, mpc.Alice))
			resMu.Lock()
			outs[i], errs[2*i], stats[2*i] = r, err, p.Conn.Stats()
			resMu.Unlock()
			p.Conn.Close()
		}(i, pa)
		go func(i int, p *mpc.Party) {
			defer wg.Done()
			_, err := Run(p, sessionQueryFor(q, rels, mpc.Bob))
			resMu.Lock()
			errs[2*i+1], stats[2*i+1] = err, p.Conn.Stats()
			resMu.Unlock()
			p.Conn.Close()
		}(i, pb)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("interleaved run %d: %v", i/2, err)
		}
	}
	for i := 0; i < n; i++ {
		compareResults(t, "interleaved result", outs[i], want)
		for _, side := range []struct {
			who   string
			got   transport.Stats
			bare  transport.Stats
			setup *TraceStep
			carry int64
		}{{"alice", stats[2*i], wantA, setupA, 1}, {"bob", stats[2*i+1], wantB, setupB, 0}} {
			wb, wm, wr := less(side.bare, side.setup, side.carry)
			gb, gm, gr := side.got.TotalBytes(), side.got.MessagesSent+side.got.MessagesRecv, side.got.Rounds
			if gb != wb || gm != wm || gr != wr {
				t.Errorf("stream %d %s: %d bytes, %d messages, %d rounds; want bare less setup: %d, %d, %d",
					i, side.who, gb, gm, gr, wb, wm, wr)
			}
		}
		if stats[2*i].BytesSent != stats[2*i+1].BytesReceived || stats[2*i].BytesReceived != stats[2*i+1].BytesSent {
			t.Errorf("stream %d: alice %+v and bob %+v disagree", i, stats[2*i], stats[2*i+1])
		}
	}

	// The session rollup accounts every stream's payload exactly: n
	// query streams plus the two reserved base-OT streams.
	st := sa.Stats()
	if st.Streams != n+2 {
		t.Fatalf("session streams: %d want %d", st.Streams, n+2)
	}
	if got, want := st.Data.TotalBytes(), n*stats[0].TotalBytes()+2*ot.SetupCost(); got != want {
		t.Fatalf("session data rollup %+v: %d bytes, want %d query streams of %d plus 2×%d base OT",
			st.Data, got, n, stats[0].TotalBytes(), ot.SetupCost())
	}
}

// TestSessionBaseOTOncePerSession starts n concurrent first queries on
// a fresh session, opening their stream ids in opposite orders on the
// two endpoints. Whichever query triggers them, the session runs
// exactly one κ-batch of base OTs per direction per endpoint, and every
// result is the plaintext one. Two further streams then run identical
// OT batches: their wire messages must differ, so the streams' derived
// PRGs and pads differ at the same instance index.
func TestSessionBaseOTOncePerSession(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	rng := rand.New(rand.NewSource(23))
	q, rels := example11Query(rng, 8, 12)
	want := plaintextReference(t, q, rels)

	rec := map[uint32][][]byte{}
	var recMu sync.Mutex
	record := func(id uint32, c transport.Conn) transport.Conn {
		return &sendRecorder{Conn: c, log: func(b []byte) {
			recMu.Lock()
			rec[id] = append(rec[id], append([]byte(nil), b...))
			recMu.Unlock()
		}}
	}
	base0, calls0 := counterValue(t, "secyan_ot_base_total"), histCount(t, "secyan_ot_base_ns")
	sa, sb := mpc.SessionPair(testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()

	const n = 4
	pas := make([]*mpc.Party, n)
	pbs := make([]*mpc.Party, n)
	for i := 0; i < n; i++ {
		var err error
		if pas[i], err = sa.PartyOn(uint32(i), mpc.PartyOpts{}); err != nil {
			t.Fatal(err)
		}
		if pbs[n-1-i], err = sb.PartyOn(uint32(n-1-i), mpc.PartyOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	outs := make([]*relation.Relation, n)
	errs := make([]error, 2*n)
	for i := 0; i < n; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			defer pbs[n-1-i].Conn.Close()
			_, errs[2*i+1] = Run(pbs[n-1-i], sessionQueryFor(q, rels, mpc.Bob))
		}(i)
		go func(i int) {
			defer wg.Done()
			defer pas[i].Conn.Close()
			outs[i], errs[2*i] = Run(pas[i], sessionQueryFor(q, rels, mpc.Alice))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i/2, err)
		}
	}
	for i := range outs {
		compareResults(t, "concurrent first query", outs[i], want)
	}
	// Both endpoints live in this process: 2 directions × 2 endpoints.
	if d := counterValue(t, "secyan_ot_base_total") - base0; d != 4*128 {
		t.Errorf("base OT instances: %d, want one κ=128 batch per direction per endpoint (512)", d)
	}
	if d := histCount(t, "secyan_ot_base_ns") - calls0; d != 4 {
		t.Errorf("base OT batches: %d, want 4", d)
	}

	// Identical OT batches on two fresh streams: all-zero messages and
	// all-zero choices, so the receiver's correction matrix is its two
	// column PRGs' XOR and the sender's ciphertexts are its pads.
	sa2, sb2 := mpc.SessionPair(testRing, mpc.SessionConfig{WrapStream: record})
	defer sa2.Close()
	defer sb2.Close()
	const m = 64
	pairs := make([][2][]byte, m)
	for j := range pairs {
		pairs[j] = [2][]byte{make([]byte, 16), make([]byte, 16)}
	}
	for _, id := range []uint32{5, 9} {
		pa, err := sa2.PartyOn(id, mpc.PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
		pb, err := sb2.PartyOn(id, mpc.PartyOpts{})
		if err != nil {
			t.Fatal(err)
		}
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
		got, err := rcv.Receive(make([]bool, m), 16)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if !bytes.Equal(got[j], pairs[j][0]) {
				t.Fatalf("stream %d: OT %d delivered %x", id, j, got[j])
			}
		}
	}
	recMu.Lock()
	defer recMu.Unlock()
	// Per stream, Bob's recorded send is the correction matrix, Alice's
	// the ciphertexts (each endpoint's hook sees only its own sends).
	a, b := rec[5], rec[9]
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("recorded %d and %d messages, want 2 each", len(a), len(b))
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			t.Fatalf("message %d: lengths %d and %d", k, len(a[k]), len(b[k]))
		}
		if bytes.Equal(a[k], b[k]) {
			t.Errorf("message %d identical on two streams: derived PRGs or pads collide", k)
		}
		for j := 0; j < m && len(a[k]) == 2*m*16; j++ {
			if bytes.Equal(a[k][32*j:32*j+16], b[k][32*j:32*j+16]) {
				t.Errorf("instance %d: equal pads on two streams", j)
			}
		}
	}
}

// sendRecorder passes a stream through, logging every message it sends.
type sendRecorder struct {
	transport.Conn
	log func([]byte)
}

func (r *sendRecorder) Send(b []byte) error {
	r.log(b)
	return r.Conn.Send(b)
}

// histCount reads a histogram's observation count from the registry.
func histCount(t *testing.T, name string) int64 {
	t.Helper()
	v, ok := obs.Default().Snapshot()[name].(map[string]int64)
	if !ok {
		t.Fatalf("histogram %q not registered", name)
	}
	return v["count"]
}

// TestSessionPrecomputeOverlapsOnlineQuery stages the offline phase of
// one query on a background stream while an online query runs on
// another stream of the same session, then consumes the staged
// material.
func TestSessionPrecomputeOverlapsOnlineQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	q, rels := example11Query(rng, 10, 16)
	want := plaintextReference(t, q, rels)

	sa, sb := mpc.SessionPair(testRing, mpc.SessionConfig{})
	defer sa.Close()
	defer sb.Close()

	// Stream 0: background offline pass over the bare query shape.
	shape := &Query{Inputs: make([]Input, len(q.Inputs)), Output: q.Output}
	for i, in := range q.Inputs {
		in.Rel = nil
		shape.Inputs[i] = in
	}
	pa0, err := sa.PartyOn(0, mpc.PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pb0, err := sb.PartyOn(0, mpc.PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	preDone := make(chan error, 2)
	go func() { _, err := Precompute(context.Background(), pa0, shape); preDone <- err }()
	go func() { _, err := Precompute(context.Background(), pb0, shape); preDone <- err }()

	// Stream 1: an online query runs while the offline pass is going.
	pa1, err := sa.PartyOn(1, mpc.PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	pb1, err := sb.PartyOn(1, mpc.PartyOpts{})
	if err != nil {
		t.Fatal(err)
	}
	onlineDone := make(chan error, 1)
	go func() {
		_, err := Run(pb1, sessionQueryFor(q, rels, mpc.Bob))
		onlineDone <- err
	}()
	res, err := Run(pa1, sessionQueryFor(q, rels, mpc.Alice))
	if err != nil {
		t.Fatalf("online run during precompute: %v", err)
	}
	if err := <-onlineDone; err != nil {
		t.Fatalf("online run (bob) during precompute: %v", err)
	}
	compareResults(t, "online during precompute", res, want)

	for i := 0; i < 2; i++ {
		if err := <-preDone; err != nil {
			t.Fatalf("background precompute: %v", err)
		}
	}

	// The staged parties now run the real query with the offline
	// material already in hand.
	stagedDone := make(chan error, 1)
	go func() {
		_, err := Run(pb0, sessionQueryFor(q, rels, mpc.Bob))
		stagedDone <- err
	}()
	res, err = Run(pa0, sessionQueryFor(q, rels, mpc.Alice))
	if err != nil {
		t.Fatalf("staged run: %v", err)
	}
	if err := <-stagedDone; err != nil {
		t.Fatalf("staged run (bob): %v", err)
	}
	compareResults(t, "staged run", res, want)
}
