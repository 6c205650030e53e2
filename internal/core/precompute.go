package core

import (
	"context"
	"time"

	"secyan/internal/gc"
	"secyan/internal/mpc"
	"secyan/internal/obs"
)

// This file implements the offline phase of the plan-driven
// offline/online split. Precompute walks the same Plan the executor
// runs, but instead of executing operators it stages their expensive
// ingredients ahead of time:
//
//   - every OT batch a step declares (PlanStep.preOTs) becomes a
//     random-OT pool fill: the IKNP matrix expansion, transposition and
//     pad derivation — and the matrix transmission — happen now, and the
//     online batch derandomizes the pooled randomness with a few
//     correction bytes (internal/ot);
//   - every circuit a step declares (PlanStep.preCircs) is built and
//     garbled (or schedule-prepared, on the evaluating side) in a
//     background goroutine, overlapping the pure compute with the pool
//     fills' network traffic; RunCircuit later recognizes the staged
//     material by shape (internal/gc, internal/mpc).
//
// The online run needs no flag: the session queues and pools make the
// fast path transparent, and any divergence from the plan falls back to
// the direct protocols, which remain correct (only slower). Join-phase
// steps scale with the data-dependent output size, declare no demands,
// and always run direct.

var mPrecomputeRuns = obs.NewCounter("secyan_core_precompute_runs_total", "Offline precompute passes executed (per party side in this process).")

// preparedCirc is one ahead-of-time circuit on this party's side of the
// protocol: exactly one of the two fields is set, depending on whether
// this party garbles or evaluates it.
type preparedCirc struct {
	garb *gc.PreGarbled
	eval *gc.PreEval
}

// Precompute executes the offline phase of q's plan on party p: the
// session's base OTs if nobody has run them yet (the offline trace's
// Setup record), one random-OT pool fill per planned OT batch, and
// ahead-of-time garbling of every planned circuit. Both parties must call it
// concurrently — the offline phase has its own traffic — and the next
// protocol run on this party pair should execute the same query, which
// then consumes the staged material transparently. It returns the
// offline trace: one TraceStep (Phase "offline") per plan step that did
// offline work, with EstBytes carrying the step's EstOfflineBytes, plus
// the Setup record.
//
// Staged material is single-use and plan-shaped. Running a different
// query next is safe but wasteful: the first mismatching step drops the
// local circuit queue and OT pools fall back batch by batch. Use
// Party.ClearPrecomputed to discard staged material deliberately — on
// both parties at the same protocol point, since pooled OT batches must
// stay symmetric.
func Precompute(ctx context.Context, p *mpc.Party, q *Query) (*Trace, error) {
	return PrecomputeOpts(ctx, p, q, PlanOptions{})
}

// PrecomputeOpts is Precompute with explicit plan options: the staged
// material is shaped by the same backend selection (forced or
// cost-based) the online run must then use.
func PrecomputeOpts(ctx context.Context, p *mpc.Party, q *Query, po PlanOptions) (*Trace, error) {
	// No Validate: the offline phase is data-independent, so q may be a
	// bare query shape (schemas, owners, sizes) with no relations
	// attached — e.g. queries.PlanFor output.
	po.EstOut, po.ChunkSize = 0, 0
	plan, err := compileQueryOpts(q, p.Ring.Bits, po)
	if err != nil {
		return nil, err
	}
	pp, release := p.WithContext(ctx)
	defer release()

	mPrecomputeRuns.Inc()
	if track := pp.Track; track != nil {
		unbind := track.Bind()
		defer unbind()
		sp := track.Begin("run", "precompute")
		defer sp.End()
	}

	// Circuit building and garbling are pure compute — no network — so
	// they run in the background, overlapping the pool fills' traffic.
	// The channel is closed when every planned circuit is staged; the
	// foreground joins before enqueueing so the queues are complete and
	// in plan order.
	prepared := make([][]preparedCirc, len(plan.Steps))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for si := range plan.Steps {
			for _, d := range plan.Steps[si].preCircs {
				c := d.build()
				if d.garbler == p.Role {
					prepared[si] = append(prepared[si], preparedCirc{garb: gc.GarbleAhead(c)})
				} else {
					prepared[si] = append(prepared[si], preparedCirc{eval: gc.PrepareEval(c)})
				}
			}
		}
	}()

	tr := &Trace{}
	if plan.needOT != ([2]bool{}) {
		if tr.Setup, err = ensureOT(ctx, pp, plan.needOT); err != nil {
			<-done
			return tr, err
		}
	}
	for si := range plan.Steps {
		st := &plan.Steps[si]
		if cerr := ctx.Err(); cerr != nil {
			<-done
			return tr, stepErr(st, cerr)
		}
		// Steps without offline traffic of their own are skipped: their
		// circuits (if any) are still staged by the background build.
		work := false
		for _, d := range st.preOTs {
			if d.m > 0 {
				work = true
			}
		}
		if !work {
			continue
		}
		before := pp.Conn.Stats()
		start := time.Now()
		err := ex1Offline(pp, st)
		after := pp.Conn.Stats()
		rec := TraceStep{Phase: "offline", Op: st.Op, Node: st.Node, N: st.N,
			EstBytes: st.EstOfflineBytes,
			Bytes:    after.TotalBytes() - before.TotalBytes(),
			Messages: (after.MessagesSent + after.MessagesRecv) - (before.MessagesSent + before.MessagesRecv),
			Rounds:   after.Rounds - before.Rounds,
			Elapsed:  time.Since(start)}
		tr.Steps = append(tr.Steps, rec)
		if pp.Observer != nil {
			pp.Observer(rec)
		}
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
			<-done
			return tr, stepErr(st, err)
		}
	}
	<-done

	for si := range plan.Steps {
		for _, pc := range prepared[si] {
			if pc.garb != nil {
				p.EnqueuePreGarbled(pc.garb)
			} else {
				p.EnqueuePreEval(pc.eval)
			}
		}
	}
	return tr, nil
}

// StagedCircuits is the network-free half of a precompute pass for one
// role: every circuit a plan declares, built and garbled ahead of time
// (or schedule-prepared, on the evaluating side) with zero traffic.
// Unlike PrecomputeOpts it involves only this process — garbling is
// data-independent pure compute and RunCircuit's staged fast path is
// wire-identical to the direct path, so one side may stage alone
// without any cross-party agreement. The daemon's precompute farm
// builds these in the background against predicted query shapes.
//
// Staged material is single-use: Attach hands it to exactly one Party
// about to execute the same plan shape.
type StagedCircuits struct {
	role     mpc.Role
	digest   uint64
	prepared []preparedCirc
}

// PrepareCircuits compiles q's plan (shape only — q needs no relations)
// under po and stages every declared circuit for role. It returns nil
// when the plan declares no circuits.
func PrepareCircuits(q *Query, ringBits int, role mpc.Role, po PlanOptions) (*StagedCircuits, error) {
	po.EstOut, po.ChunkSize = 0, 0
	plan, err := compileQueryOpts(q, ringBits, po)
	if err != nil {
		return nil, err
	}
	sc := &StagedCircuits{role: role, digest: plan.Digest()}
	for si := range plan.Steps {
		for _, d := range plan.Steps[si].preCircs {
			c := d.build()
			if d.garbler == role {
				sc.prepared = append(sc.prepared, preparedCirc{garb: gc.GarbleAhead(c)})
			} else {
				sc.prepared = append(sc.prepared, preparedCirc{eval: gc.PrepareEval(c)})
			}
		}
	}
	if len(sc.prepared) == 0 {
		return nil, nil
	}
	return sc, nil
}

// Len returns the number of staged circuits.
func (sc *StagedCircuits) Len() int {
	if sc == nil {
		return 0
	}
	return len(sc.prepared)
}

// Digest returns the shape digest of the plan the circuits were staged
// for.
func (sc *StagedCircuits) Digest() uint64 {
	if sc == nil {
		return 0
	}
	return sc.digest
}

// Attach enqueues the staged circuits onto p's precomputed-circuit
// queues, in plan order. p must have the staging role and be about to
// run the same plan shape; a mismatched run falls back to the direct
// protocols (dropping the queue), which stays correct. Attach consumes
// the material — a second call is a no-op.
func (sc *StagedCircuits) Attach(p *mpc.Party) {
	if sc == nil || p.Role != sc.role {
		return
	}
	for _, pc := range sc.prepared {
		if pc.garb != nil {
			p.EnqueuePreGarbled(pc.garb)
		} else {
			p.EnqueuePreEval(pc.eval)
		}
	}
	sc.prepared = nil
}

// ex1Offline performs one step's offline work: one pool fill per
// declared OT batch. Both parties walk identical plans, so the fills
// proceed in lockstep (a fill is half a round: the receiver sends its
// correction matrix, the sender only receives).
func ex1Offline(pp *mpc.Party, st *PlanStep) error {
	for _, d := range st.preOTs {
		if d.m <= 0 {
			continue
		}
		if d.sender == pp.Role {
			snd, err := pp.OTSender()
			if err != nil {
				return err
			}
			if err := snd.FillRandom(d.m, otMsgLen); err != nil {
				return err
			}
		} else {
			rcv, err := pp.OTReceiver()
			if err != nil {
				return err
			}
			if err := rcv.FillRandom(d.m, otMsgLen); err != nil {
				return err
			}
		}
	}
	return nil
}
