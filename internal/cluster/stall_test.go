package cluster

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"blockpar/internal/apps"
	"blockpar/internal/wire"
)

// resultSwallower deletes the first Result frame the dispatcher reads
// on any connection it dialed: one message lost on an otherwise-healthy
// connection, which no connection-level health check can see.
type resultSwallower struct{ swallowed atomic.Bool }

func (s *resultSwallower) dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &swallowConn{Conn: c, s: s}, nil
}

// swallowConn re-frames the inbound byte stream ([u32 length | type |
// payload | crc]) so a whole frame can be cut out of it.
type swallowConn struct {
	net.Conn
	s   *resultSwallower
	in  []byte // bytes read from the peer, not yet a whole frame
	out []byte // whole frames ready for the reader
	err error
}

func (c *swallowConn) Read(b []byte) (int, error) {
	for len(c.out) == 0 {
		if c.err != nil {
			return 0, c.err
		}
		var buf [32 << 10]byte
		n, err := c.Conn.Read(buf[:])
		c.in, c.err = append(c.in, buf[:n]...), err
		for len(c.in) >= 5 {
			size := 4 + int(binary.BigEndian.Uint32(c.in))
			if len(c.in) < size {
				break
			}
			if wire.MsgType(c.in[4]) != wire.TypeResult || !c.s.swallowed.CompareAndSwap(false, true) {
				c.out = append(c.out, c.in[:size]...)
			}
			c.in = c.in[size:]
		}
	}
	n := copy(b, c.out)
	c.out = c.out[n:]
	return n, nil
}

// TestStallWatchdogRecoversLostResult loses one Result on a healthy
// connection, for a session that runs whole and for one split two
// ways. With one frame in flight nothing else would ever notice: the
// stall watchdog must see frames in flight with no progress within
// StallTimeout and recover the silent partition. With two in flight
// the next result arrives past the gap and recovers the partition at
// once. Either way the stream must complete byte-identical to the
// batch golden with no client-visible error, within 20 × 250 ms.
func TestStallWatchdogRecoversLostResult(t *testing.T) {
	app, err := apps.ByID("5")
	if err != nil {
		t.Fatal(err)
	}
	const frames = 4
	want := batchFrames(t, app, frames)
	for _, tc := range []struct{ parts, inFlight int }{{1, 1}, {2, 1}, {1, 2}, {2, 2}} {
		parts := tc.parts
		t.Run(fmt.Sprintf("partitions=%d/inflight=%d", parts, tc.inFlight), func(t *testing.T) {
			frontend := suiteRegistry(t, "5")
			p, _ := frontend.Get("5")
			var sw resultSwallower
			opts := fastOpts()
			opts.Dial = sw.dial
			opts.StallTimeout = 250 * time.Millisecond
			if tc.inFlight > 1 {
				// Only the gap can recover the stream within the bound.
				opts.StallTimeout = time.Minute
			}
			opts.Partitions = parts
			d, _, stop, err := LoopbackFleet(parts, opts, func(i int) *Worker {
				return NewWorker(suiteRegistry(t, "5"), WorkerOptions{Name: fmt.Sprintf("stall-w%d", i)})
			})
			if err != nil {
				t.Fatal(err)
			}
			defer stop()

			h, err := openN(d, p, 2)
			if err != nil {
				t.Fatal(err)
			}
			ps := h.(*partitionedSession)
			ps.mu.Lock()
			got := len(ps.halves)
			ps.mu.Unlock()
			if got != parts {
				t.Fatalf("session runs %d partitions, want %d", got, parts)
			}

			start := time.Now()
			for f := int64(0); f < frames; f += int64(tc.inFlight) {
				for i := int64(0); i < int64(tc.inFlight); i++ {
					if _, err := h.TryFeed(nil); err != nil {
						t.Fatalf("feed %d: %v", f+i, err)
					}
				}
				for i := int64(0); i < int64(tc.inFlight); i++ {
					collectCompare(t, h, f+i, want)
				}
			}
			if !sw.swallowed.Load() {
				t.Fatal("no Result was swallowed; the stall path went unexercised")
			}
			if n := dispatcherCounter(d, "partitions_failed_over"); n < 1 {
				t.Errorf("partitions_failed_over = %d, want >= 1", n)
			}
			if elapsed, bound := time.Since(start), 5*time.Second; elapsed > bound {
				t.Errorf("stream took %v to recover, want under %v", elapsed, bound)
			}
			if err := h.Close(); err != nil {
				t.Fatalf("close after stall recovery: %v", err)
			}
		})
	}
}
