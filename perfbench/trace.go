package main

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"blockpar/internal/frame"
	"blockpar/internal/runtime"
	"blockpar/internal/serve"
	"blockpar/internal/wire"
)

// tracer holds the probes of a traced run. Every probe sits on a
// public boundary the benchmark itself calls or constructs: a
// serve.Backend decorator, a DispatcherOptions.Dial wrapper and the
// HTTP clients' dialer.
type tracer struct {
	http byteCounter
	wire wireStats

	mu sync.Mutex
	// backend spans per session frame: TryFeed entry to the Collect
	// return that delivered the frame.
	feedStart  map[int64]time.Time
	collectEnd map[int64]time.Time
	open       time.Duration

	tryFeeds  atomic.Int64
	queueFull atomic.Int64
}

func newTracer() *tracer {
	return &tracer{feedStart: make(map[int64]time.Time), collectEnd: make(map[int64]time.Time)}
}

// backendSpan returns frame seq's span inside the backend.
func (t *tracer) backendSpan(seq int64) (span, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok1 := t.feedStart[seq]
	e, ok2 := t.collectEnd[seq]
	return span{name: "backend", start: s, end: e}, ok1 && ok2
}

// tracedBackend decorates the server's backend with span probes.
type tracedBackend struct {
	inner serve.Backend
	tr    *tracer
}

func (b *tracedBackend) Open(p *serve.Pipeline, opts serve.OpenOptions) (serve.SessionHandle, error) {
	start := time.Now()
	h, err := b.inner.Open(p, opts)
	b.tr.mu.Lock()
	b.tr.open = time.Since(start)
	b.tr.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return &tracedHandle{SessionHandle: h, tr: b.tr}, nil
}

type tracedHandle struct {
	serve.SessionHandle
	tr *tracer
}

func (h *tracedHandle) TryFeed(inputs map[string]frame.Window) (int64, error) {
	start := time.Now()
	seq, err := h.SessionHandle.TryFeed(inputs)
	h.tr.tryFeeds.Add(1)
	if errors.Is(err, runtime.ErrQueueFull) {
		h.tr.queueFull.Add(1)
	}
	if err == nil {
		h.tr.mu.Lock()
		h.tr.feedStart[seq] = start
		h.tr.mu.Unlock()
	}
	return seq, err
}

func (h *tracedHandle) Collect(timeout time.Duration) (*runtime.StreamResult, error) {
	res, err := h.SessionHandle.Collect(timeout)
	if err == nil {
		end := time.Now()
		h.tr.mu.Lock()
		h.tr.collectEnd[res.Seq] = end
		h.tr.mu.Unlock()
	}
	return res, err
}

// byteCounter tallies the traffic of the load generator's HTTP
// connections.
type byteCounter struct {
	dials, read, written atomic.Int64
}

type countedConn struct {
	net.Conn
	n *byteCounter
}

func (c *countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.read.Add(int64(n))
	return n, err
}

func (c *countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.written.Add(int64(n))
	return n, err
}

// wireStats counts the dispatcher's side of every dispatcher↔worker
// connection: socket reads and writes, and bytes by message type. While
// capturing it also keeps a copy of every message, so the wire codec
// can be timed on the workload's real traffic.
type wireStats struct {
	reads, writes   atomic.Int64
	bytes           atomic.Int64
	typeBytes       [256]atomic.Int64
	typeWrites      [256]atomic.Int64
	capturing       atomic.Bool
	mu              sync.Mutex
	captured        []capturedMsg
	capturedBytes   int
	maxCaptureBytes int
}

type capturedMsg struct {
	typ     wire.MsgType
	payload []byte
}

// relay sums the tallies of the partition-relay messages: the cut-edge
// traffic (EdgeFrame, EdgeCredit) the dispatcher forwards between
// partitions.
func (s *wireStats) relay() (bytes, writes int64) {
	for _, t := range []wire.MsgType{wire.TypeEdgeFrame, wire.TypeEdgeCredit} {
		bytes += s.typeBytes[t].Load()
		writes += s.typeWrites[t].Load()
	}
	return bytes, writes
}

func (s *wireStats) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &wireConn{Conn: c, s: s}, nil
}

func (s *wireStats) keep(t wire.MsgType, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capturedBytes+len(body) > s.maxCaptureBytes {
		return
	}
	s.capturedBytes += len(body)
	s.captured = append(s.captured, capturedMsg{typ: t, payload: append([]byte(nil), body...)})
}

type wireConn struct {
	net.Conn
	s     *wireStats
	rd, w frameScanner // reads stay on one goroutine; wire.Conn serializes writes
}

func (c *wireConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.s.reads.Add(1)
	c.rd.scan(b[:n], c.s)
	return n, err
}

func (c *wireConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	t := c.w.scan(b[:n], c.s)
	c.s.writes.Add(1)
	c.s.typeWrites[t].Add(1)
	return n, err
}

// frameScanner follows the wire framing ([u32 length][type][payload]
// [crc32]) across arbitrary read and write boundaries.
type frameScanner struct {
	hdr       [4]byte
	nhdr      int
	remaining int // body bytes (type, payload, crc) still to come
	typ       wire.MsgType
	known     bool // typ is read for the current message
	capture   bool
	body      []byte
}

// scan accounts b and returns the type of the message its first byte
// belongs to (zero when b holds only a length prefix).
func (f *frameScanner) scan(b []byte, s *wireStats) wire.MsgType {
	s.bytes.Add(int64(len(b)))
	var first wire.MsgType
	firstSet := false
	for len(b) > 0 {
		if f.remaining == 0 {
			k := copy(f.hdr[f.nhdr:], b)
			f.nhdr += k
			b = b[k:]
			if f.nhdr == 4 {
				f.nhdr = 0
				f.remaining = int(binary.BigEndian.Uint32(f.hdr[:]))
				f.known = false
				f.capture = s.capturing.Load()
				f.body = f.body[:0]
			}
			continue
		}
		k := min(f.remaining, len(b))
		chunk := b[:k]
		b = b[k:]
		if !f.known {
			f.typ, f.known = wire.MsgType(chunk[0]), true
			s.typeBytes[f.typ].Add(4)
		}
		if !firstSet {
			first, firstSet = f.typ, true
		}
		s.typeBytes[f.typ].Add(int64(k))
		if f.capture {
			f.body = append(f.body, chunk...)
		}
		f.remaining -= k
		if f.remaining == 0 && f.capture && len(f.body) > 5 {
			// Strip the type byte and the CRC trailer: what is left is
			// what wire.Decode takes.
			s.keep(f.typ, f.body[1:len(f.body)-4])
		}
	}
	return first
}
