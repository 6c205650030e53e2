package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"secyan/internal/mpc"
	"secyan/internal/transport"
)

// recvLog records every Recv-blocked interval on the streams of a
// session pair, through the session's WrapStream hook. It is installed
// only in traced runs.
type recvLog struct {
	mu  sync.Mutex
	ivs map[streamKey][]interval
}

type streamKey struct {
	role mpc.Role
	id   uint32
}

type interval struct{ start, end time.Time }

func newRecvLog() *recvLog { return &recvLog{ivs: map[streamKey][]interval{}} }

// wrap returns the WrapStream hook of one party's session.
func (l *recvLog) wrap(role mpc.Role) func(id uint32, c transport.Conn) transport.Conn {
	return func(id uint32, c transport.Conn) transport.Conn {
		return &waitConn{Conn: c, log: l, key: streamKey{role, id}}
	}
}

// take removes and returns the intervals recorded on one stream.
func (l *recvLog) take(role mpc.Role, id uint32) []interval {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := streamKey{role, id}
	ivs := l.ivs[k]
	delete(l.ivs, k)
	return ivs
}

// waitConn times each Recv; everything else passes through.
type waitConn struct {
	transport.Conn
	log *recvLog
	key streamKey
}

func (c *waitConn) Recv() ([]byte, error) {
	start := time.Now()
	b, err := c.Conn.Recv()
	end := time.Now()
	c.log.mu.Lock()
	c.log.ivs[c.key] = append(c.log.ivs[c.key], interval{start, end})
	c.log.mu.Unlock()
	return b, err
}

// overlap is the part of [start, end) covered by ivs.
func overlap(ivs []interval, start, end time.Time) time.Duration {
	var d time.Duration
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s.Before(start) {
			s = start
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			d += e.Sub(s)
		}
	}
	return d
}

func total(ivs []interval) time.Duration {
	var d time.Duration
	for _, iv := range ivs {
		d += iv.end.Sub(iv.start)
	}
	return d
}

// chromeEvent is one entry of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as a Chrome trace (chrome://tracing or
// Perfetto), timestamps relative to the earliest span. Every span of
// one query carries its ID in args.qid.
func writeChromeTrace(path string, spans []span) error {
	if len(spans) == 0 {
		return fmt.Errorf("no spans to trace")
	}
	t0 := spans[0].start
	tids := map[int]bool{}
	for _, s := range spans {
		if s.start.Before(t0) {
			t0 = s.start
		}
		tids[s.tid] = true
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	var events []chromeEvent
	for tid := range tids {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": trackName(tid)}})
	}
	for _, s := range spans {
		ev := chromeEvent{Name: s.name, Cat: s.cat, Ph: "X", Pid: 1, Tid: s.tid,
			Ts: us(s.start.Sub(t0)), Dur: us(s.end.Sub(s.start))}
		if s.qid > 0 {
			ev.Args = map[string]any{"qid": s.qid}
		}
		events = append(events, ev)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

func trackName(tid int) string {
	switch tid {
	case tidHarness:
		return "harness"
	case tidAlice:
		return "alice steps"
	case tidBob:
		return "bob steps"
	case tidAliceRecv:
		return "alice recv-blocked"
	case tidBobRecv:
		return "bob recv-blocked"
	}
	return fmt.Sprintf("tenant %d", tid-tidTenant0)
}
