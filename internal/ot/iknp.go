package ot

import (
	"fmt"
	"time"

	"secyan/internal/bitutil"
	"secyan/internal/obs"
	"secyan/internal/parallel"
	"secyan/internal/prf"
	"secyan/internal/transport"
)

// kappa is the number of base OTs / the width of the IKNP matrix.
const kappa = 128

// otRate converts an instance count and elapsed time to OTs/second.
func otRate(m int, d time.Duration) int64 {
	if d <= 0 {
		return 0
	}
	return int64(float64(m) / d.Seconds())
}

// Sender is the message-sending endpoint of an IKNP OT-extension stream.
// Its κ base OTs (run in the reverse direction) come from a SenderBase,
// which any number of streams share; every call to Send then transfers
// an arbitrary batch of message pairs using only symmetric
// cryptography, in a single round trip.
type Sender struct {
	conn    transport.Conn
	s       *bitutil.Vector // the κ secret selection bits (shared, read-only)
	sRow    [kappa / 8]byte // s packed, XORed into q-rows for pad 1
	streams []*prf.PRG      // PRG(k_i^{s_i}, stream), one per column
	stream  uint32          // stream id, selecting the PRG nonce and tweak range
	idx     uint64          // next OT instance tweak (see reserveTweaks)
	pool    Pool            // precomputed random-OT batches (random.go)
}

// Receiver is the choosing endpoint of an IKNP OT-extension stream.
type Receiver struct {
	conn     transport.Conn
	streams0 []*prf.PRG
	streams1 []*prf.PRG
	stream   uint32
	idx      uint64
	pool     Pool
}

// SenderBase is the extension sender's result of one direction's κ base
// OTs: the secret selection bits s and the seeds k_i^{s_i} chosen by
// them. It is immutable, so streams derive their Senders from it
// concurrently (see DESIGN.md §15, "Base OTs per session").
type SenderBase struct {
	s     *bitutil.Vector
	seeds []prf.Seed
}

// ReceiverBase is the extension receiver's side of one direction's κ
// base OTs: the seed pairs (k_i^0, k_i^1) it offered. Immutable.
type ReceiverBase struct {
	pairs [][2]prf.Seed
}

// SetupSender runs the κ base OTs as the base-OT *receiver*, with κ
// random choice bits, and returns the extension sender's base.
func SetupSender(conn transport.Conn) (*SenderBase, error) {
	g := prf.NewPRG(prf.RandomSeed())
	choices := make([]bool, kappa)
	s := bitutil.NewVector(kappa)
	for i := range choices {
		choices[i] = g.Bool()
		s.Set(i, choices[i])
	}
	seeds, err := BaseRecv(conn, choices)
	if err != nil {
		return nil, fmt.Errorf("ot: sender setup: %w", err)
	}
	return &SenderBase{s: s, seeds: seeds}, nil
}

// SetupReceiver runs the κ base OTs as the base-OT *sender*, offering κ
// random seed pairs, and returns the extension receiver's base.
func SetupReceiver(conn transport.Conn) (*ReceiverBase, error) {
	pairs := make([][2]prf.Seed, kappa)
	for i := range pairs {
		pairs[i][0] = prf.RandomSeed()
		pairs[i][1] = prf.RandomSeed()
	}
	if err := BaseSend(conn, pairs); err != nil {
		return nil, fmt.Errorf("ot: receiver setup: %w", err)
	}
	return &ReceiverBase{pairs: pairs}, nil
}

// Sender returns the extension sender of stream id over conn. Its column
// PRGs are the base seeds' stream-id nonce streams and its OT counter
// starts at id·StreamBudget, so two streams of one base never share a
// PRG stream or a hash tweak. The peer derives the matching Receiver
// with the same id.
func (b *SenderBase) Sender(conn transport.Conn, id uint32) *Sender {
	snd := &Sender{conn: conn, s: b.s, stream: id, idx: uint64(id) * StreamBudget}
	copy(snd.sRow[:], b.s.Bytes())
	snd.streams = make([]*prf.PRG, kappa)
	for i, sd := range b.seeds {
		snd.streams[i] = prf.NewPRGNonce(sd, id)
	}
	return snd
}

// Receiver returns the extension receiver of stream id over conn; see
// SenderBase.Sender.
func (b *ReceiverBase) Receiver(conn transport.Conn, id uint32) *Receiver {
	r := &Receiver{conn: conn, stream: id, idx: uint64(id) * StreamBudget}
	r.streams0 = make([]*prf.PRG, kappa)
	r.streams1 = make([]*prf.PRG, kappa)
	for i, pr := range b.pairs {
		r.streams0[i] = prf.NewPRGNonce(pr[0], id)
		r.streams1[i] = prf.NewPRGNonce(pr[1], id)
	}
	return r
}

// NewSender runs the base OTs over conn and returns stream 0's extension
// sender: a one-stream session of its own.
func NewSender(conn transport.Conn) (*Sender, error) {
	b, err := SetupSender(conn)
	if err != nil {
		return nil, err
	}
	return b.Sender(conn, 0), nil
}

// NewReceiver runs the base OTs over conn and returns stream 0's
// extension receiver.
func NewReceiver(conn transport.Conn) (*Receiver, error) {
	b, err := SetupReceiver(conn)
	if err != nil {
		return nil, err
	}
	return b.Receiver(conn, 0), nil
}

// StreamBudget is the number of OT instances one stream's Sender or
// Receiver may run, counting every batch padded to a multiple of 64.
// Stream id owns the counter range [id·StreamBudget, (id+1)·StreamBudget),
// so with 32-bit ids every (stream, instance) tweak is unique within the
// 62 bits prf.SiteOT leaves free.
const StreamBudget = 1 << 30

// BudgetError reports an OT batch that would run a stream past
// StreamBudget. It is returned before the batch touches the wire, on
// both endpoints alike (they count the same batches), and the counter
// never wraps into another stream's range or another tweak site.
type BudgetError struct {
	Stream uint32
	Used   uint64 // instances already run on the stream
	Want   int    // padded size of the refused batch
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("ot: stream %d OT budget exhausted: %d of %d instances used, batch needs %d",
		e.Stream, e.Used, uint64(StreamBudget), e.Want)
}

// reserveTweaks claims the next n instance tweaks of stream's counter
// *next and returns the first.
func reserveTweaks(next *uint64, stream uint32, n int) (uint64, error) {
	used := *next - uint64(stream)*StreamBudget
	if uint64(n) > StreamBudget-used {
		return 0, &BudgetError{Stream: stream, Used: used, Want: n}
	}
	idx := *next
	*next += uint64(n)
	return idx, nil
}

// padBatch is the number of OT instances whose pads are hashed per
// HashBlocks call in the batched break-correlation path.
const padBatch = 64

// otTweak maps a stream's OT instance counter into the OT
// extension's tweak domain of the fixed-key permutation (see the Site*
// scheme in prf/fixedkey.go). The two pads of one instance — rows q_j
// and q_j ⊕ s — share the tweak by design: that correlated pair is the
// correlation-robustness game the MMO hash is assumed to win.
func otTweak(idx uint64) uint64 { return prf.SiteOT | idx }

// derivePad writes the len(dst)-byte pad of OT instance idx into dst:
// the fixed-key AES MMO hash of the instance's κ-bit row, truncated for
// narrower messages and KDF-expanded (HashToWidthAES) for wider ones.
// Every branch is allocation-free, so callers can pass stack buffers.
func derivePad(dst []byte, idx uint64, row prf.Block) {
	if len(dst) <= 16 {
		h := prf.HashBlock(row, otTweak(idx))
		copy(dst, h[:len(dst)])
		return
	}
	prf.HashToWidthAES(dst, row, otTweak(idx))
}

// hashRowPads derives the pads of OT instances [lo, hi) in bulk:
// instance j's key is row j of rows (XORed with mask when non-nil),
// hashed under tweak idx+j, and its pad lands at
// dst[j·stride·msgLen : j·stride·msgLen+msgLen]. The protocol-standard
// msgLen of 16 bytes runs the batched HashBlocks kernel — one row
// gather and one AES sweep per padBatch instances; other widths fall
// back to per-instance derivation. Zero heap allocations either way.
func hashRowPads(dst []byte, stride int, rows *bitutil.Matrix, mask *[kappa / 8]byte, idx uint64, lo, hi, msgLen int) {
	var src, out [padBatch]prf.Block
	for base := lo; base < hi; base += padBatch {
		n := hi - base
		if n > padBatch {
			n = padBatch
		}
		for k := 0; k < n; k++ {
			rows.RowBytesInto(src[k][:], base+k)
			if mask != nil {
				prf.XORBytes(src[k][:], src[k][:], mask[:])
			}
		}
		if msgLen == 16 {
			prf.HashBlocks(out[:n], src[:n], otTweak(idx+uint64(base)), 1)
			for k := 0; k < n; k++ {
				off := (base + k) * stride * msgLen
				copy(dst[off:off+msgLen], out[k][:])
			}
		} else {
			for k := 0; k < n; k++ {
				off := (base + k) * stride * msgLen
				derivePad(dst[off:off+msgLen], idx+uint64(base+k), src[k])
			}
		}
	}
}

// Receive performs len(choices) OTs, returning the chosen message of each
// pair sent by the peer's matching Send call. All messages have msgLen
// bytes. When the pool holds a precomputed batch of matching dimensions
// it is consumed by derandomization; otherwise the direct IKNP batch
// runs. Both paths produce messages of identical distribution, so
// callers never observe which one served them.
func (r *Receiver) Receive(choices []bool, msgLen int) ([][]byte, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	var startT time.Time
	if obs.Enabled() {
		startT = time.Now()
		defer func() {
			d := time.Since(startT)
			mExtOTs.Add(int64(m))
			mExtBatches.Inc()
			mExtNs.Observe(d.Nanoseconds())
			mExtRate.Set(otRate(m, d))
		}()
	}
	if b := r.pool.take(m, msgLen); b != nil {
		return r.receiveDerandomized(b, choices)
	}
	return r.receiveDirect(choices, msgLen)
}

func (r *Receiver) receiveDirect(choices []bool, msgLen int) ([][]byte, error) {
	m := len(choices)
	sp := obs.Begin("ot", "ot.ext.recv")
	defer sp.EndN(int64(m))
	mPad := (m + 63) &^ 63
	rowBytes := mPad / 8
	idx, err := reserveTweaks(&r.idx, r.stream, mPad)
	if err != nil {
		return nil, err
	}

	// Choice bits as a padded bit vector (padding bits random: they
	// correspond to discarded OT instances).
	g := prf.NewPRG(prf.RandomSeed())
	rv := bitutil.NewVector(mPad)
	for i, c := range choices {
		rv.Set(i, c)
	}
	for i := m; i < mPad; i++ {
		rv.Set(i, g.Bool())
	}

	tt, err := r.expandColumns(rv.Bytes(), mPad, rowBytes)
	if err != nil {
		return nil, err
	}

	ct, err := r.conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(ct) != 2*m*msgLen {
		return nil, fmt.Errorf("ot: extension ciphertexts: got %d bytes, want %d", len(ct), 2*m*msgLen)
	}
	// OT instances are independent: instance j reads row j of Tᵀ and its
	// own ciphertext slice and writes only out[j]. All outputs share one
	// flat backing array, pads are hashed in padBatch-sized AES sweeps
	// straight into it, and the loop performs no per-instance allocation.
	out := make([][]byte, m)
	outBack := make([]byte, m*msgLen)
	parallel.For(m, 32, func(lo, hi int) {
		hashRowPads(outBack, 1, tt, nil, idx, lo, hi, msgLen)
		for j := lo; j < hi; j++ {
			msg := outBack[j*msgLen : (j+1)*msgLen]
			c := ct[2*j*msgLen : (2*j+1)*msgLen]
			if choices[j] {
				c = ct[(2*j+1)*msgLen : (2*j+2)*msgLen]
			}
			prf.XORBytes(msg, msg, c)
			out[j] = msg
		}
	})
	return out, nil
}

// expandColumns derives the T matrix from the base-OT streams, sends the
// correction matrix u_i = t_i ⊕ PRG(k_i^1) ⊕ r, and returns Tᵀ whose
// rows are the per-instance keys.
//
// Each column owns its two PRG streams and a disjoint slice of uMsg, so
// the expansion parallelizes with byte-identical output.
func (r *Receiver) expandColumns(rBytes []byte, mPad, rowBytes int) (*bitutil.Matrix, error) {
	tm := bitutil.NewMatrix(kappa, mPad)
	uMsg := make([]byte, kappa*rowBytes)
	parallel.For(kappa, 8, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			t := r.streams0[i].Bytes(rowBytes)
			tm.SetRowBytes(i, t)
			p1 := r.streams1[i].Bytes(rowBytes)
			u := uMsg[i*rowBytes : (i+1)*rowBytes]
			prf.XORBytes(u, t, p1)
			prf.XORBytes(u, u, rBytes)
		}
	})
	if err := r.conn.Send(uMsg); err != nil {
		return nil, err
	}
	return tm.Transpose(), nil
}

// Send performs len(pairs) OTs as sender; pairs[j][c] is delivered iff the
// receiver chose c. All messages must have equal length. Like Receive, a
// matching pooled batch short-circuits to the derandomized path.
func (s *Sender) Send(pairs [][2][]byte) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	var startT time.Time
	if obs.Enabled() {
		startT = time.Now()
		defer func() {
			d := time.Since(startT)
			mExtOTs.Add(int64(m))
			mExtBatches.Inc()
			mExtNs.Observe(d.Nanoseconds())
			mExtRate.Set(otRate(m, d))
		}()
	}
	msgLen := len(pairs[0][0])
	for _, p := range pairs {
		if len(p[0]) != msgLen || len(p[1]) != msgLen {
			return fmt.Errorf("ot: all messages must have length %d", msgLen)
		}
	}
	if b := s.pool.take(m, msgLen); b != nil {
		return s.sendDerandomized(b, pairs, msgLen)
	}
	return s.sendDirect(pairs, msgLen)
}

func (s *Sender) sendDirect(pairs [][2][]byte, msgLen int) error {
	m := len(pairs)
	sp := obs.Begin("ot", "ot.ext.send")
	defer sp.EndN(int64(m))
	mPad := (m + 63) &^ 63
	rowBytes := mPad / 8
	idx, err := reserveTweaks(&s.idx, s.stream, mPad)
	if err != nil {
		return err
	}

	qt, err := s.expandColumns(mPad, rowBytes)
	if err != nil {
		return err
	}

	// Instance j derives both pads from row j alone and writes the
	// disjoint ciphertext slice ct[2j·msgLen : (2j+2)·msgLen]; pads are
	// hashed in batched AES sweeps (one per correlation side) directly
	// into the ciphertext buffer, so no per-instance allocation.
	ct := make([]byte, 2*m*msgLen)
	parallel.For(m, 32, func(lo, hi int) {
		hashRowPads(ct, 2, qt, nil, idx, lo, hi, msgLen)
		hashRowPads(ct[msgLen:], 2, qt, &s.sRow, idx, lo, hi, msgLen)
		for j := lo; j < hi; j++ {
			c0 := ct[2*j*msgLen : (2*j+1)*msgLen]
			c1 := ct[(2*j+1)*msgLen : (2*j+2)*msgLen]
			prf.XORBytes(c0, c0, pairs[j][0])
			prf.XORBytes(c1, c1, pairs[j][1])
		}
	})
	return s.conn.Send(ct)
}

// expandColumns receives the peer's correction matrix, applies the secret
// s correction per column, and returns Qᵀ whose rows are the instance
// keys. Column i owns stream i and writes only row i of the Q matrix.
func (s *Sender) expandColumns(mPad, rowBytes int) (*bitutil.Matrix, error) {
	uMsg, err := s.conn.Recv()
	if err != nil {
		return nil, err
	}
	if len(uMsg) != kappa*rowBytes {
		return nil, fmt.Errorf("ot: extension matrix: got %d bytes, want %d", len(uMsg), kappa*rowBytes)
	}
	qm := bitutil.NewMatrix(kappa, mPad)
	parallel.For(kappa, 8, func(lo, hi int) {
		tmp := make([]byte, rowBytes)
		for i := lo; i < hi; i++ {
			q := s.streams[i].Bytes(rowBytes)
			if s.s.Get(i) {
				prf.XORBytes(tmp, q, uMsg[i*rowBytes:(i+1)*rowBytes])
				qm.SetRowBytes(i, tmp)
			} else {
				qm.SetRowBytes(i, q)
			}
		}
	})
	return qm.Transpose(), nil
}
