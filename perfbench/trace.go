package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/wire"
)

// maxSpans bounds the spans kept in memory; later ones are counted only.
const maxSpans = 1 << 18

// span is one timed call at a layer boundary: a device call on an OSD or
// a Conn.Send on a connection. Spans cannot be tied to a client request
// from outside the program.
type span struct {
	name       string
	node       int32
	start, end int64 // ns since the tracer's epoch
}

// tracer wraps every device and connection of a cluster, counting and
// timing the calls that cross them. It records only while on.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	spans   []span
	nspans  atomic.Int64
	connsMu sync.Mutex
	conns   []string // connection id -> "dial <addr>" / "accept <addr>"
	c       traceCounts
}

// traceCounts is what the wrappers count while the tracer is on.
type traceCounts struct {
	sends, sendNs, clientReqs               atomic.Int64
	wCalls, wSegs, wNs, rCalls, rNs, fCalls atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, maxSpans)}
}

func (t *tracer) record(name string, node int32, start, end time.Time) {
	i := t.nspans.Add(1) - 1
	if i < maxSpans {
		t.spans[i] = span{name: name, node: node, start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
	}
}

// write stores the kept spans as CSV and returns the file's path.
func (t *tracer) write(dir, base string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".csv")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	t.connsMu.Lock()
	for id, c := range t.conns {
		fmt.Fprintf(bw, "# conn %d %s\n", id, c)
	}
	t.connsMu.Unlock()
	fmt.Fprintln(bw, "name,node,start_ns,end_ns")
	n := min(t.nspans.Load(), maxSpans)
	for _, s := range t.spans[:n] {
		fmt.Fprintf(bw, "%s,%d,%d,%d\n", s.name, s.node, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func (t *tracer) conn(kind string, c messenger.Conn, addr string) messenger.Conn {
	t.connsMu.Lock()
	id := int32(len(t.conns))
	t.conns = append(t.conns, kind+" "+addr)
	t.connsMu.Unlock()
	return &tracedConn{Conn: c, t: t, id: id}
}

func (t *tracer) wrapTransport(tr messenger.Transport) messenger.Transport {
	return &tracedTransport{Transport: tr, t: t}
}

func (t *tracer) wrapDevice(osd int, d device.Device) device.Device {
	return &tracedDevice{Device: d, t: t, osd: int32(osd)}
}

type tracedTransport struct {
	messenger.Transport
	t *tracer
}

func (tt *tracedTransport) Listen(addr string) (messenger.Listener, error) {
	ln, err := tt.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tracedListener{Listener: ln, t: tt.t}, nil
}

func (tt *tracedTransport) Dial(addr string) (messenger.Conn, error) {
	c, err := tt.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return tt.t.conn("dial", c, addr), nil
}

type tracedListener struct {
	messenger.Listener
	t *tracer
}

func (tl *tracedListener) Accept() (messenger.Conn, error) {
	c, err := tl.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return tl.t.conn("accept", c, c.RemoteAddr()), nil
}

type tracedConn struct {
	messenger.Conn
	t  *tracer
	id int32
}

// sendSpan names the send span of each message type once.
var sendSpan sync.Map // wire.MsgType -> string

func (c *tracedConn) Send(m wire.Message) error {
	if !c.t.on.Load() {
		return c.Conn.Send(m)
	}
	start := time.Now()
	err := c.Conn.Send(m)
	end := time.Now()
	typ := m.Type()
	name, ok := sendSpan.Load(typ)
	if !ok {
		name, _ = sendSpan.LoadOrStore(typ, "send."+typ.String())
	}
	tc := &c.t.c
	tc.sends.Add(1)
	tc.sendNs.Add(int64(end.Sub(start)))
	if typ == wire.TClientWrite || typ == wire.TClientRead {
		tc.clientReqs.Add(1)
	}
	c.t.record(name.(string), c.id, start, end)
	return err
}

type tracedDevice struct {
	device.Device
	t   *tracer
	osd int32
}

func (d *tracedDevice) timed(name string, calls, ns *atomic.Int64, segs int, f func() (int, error)) (int, error) {
	if !d.t.on.Load() {
		return f()
	}
	start := time.Now()
	n, err := f()
	end := time.Now()
	calls.Add(1)
	ns.Add(int64(end.Sub(start)))
	if segs > 0 {
		d.t.c.wSegs.Add(int64(segs))
	}
	d.t.record(name, d.osd, start, end)
	return n, err
}

func (d *tracedDevice) WriteAt(p []byte, off int64) (int, error) {
	return d.timed("dev.write", &d.t.c.wCalls, &d.t.c.wNs, 1, func() (int, error) { return d.Device.WriteAt(p, off) })
}

func (d *tracedDevice) WriteAtv(vecs []device.IOVec) (int, error) {
	return d.timed("dev.writev", &d.t.c.wCalls, &d.t.c.wNs, len(vecs), func() (int, error) { return d.Device.WriteAtv(vecs) })
}

func (d *tracedDevice) ReadAt(p []byte, off int64) (int, error) {
	return d.timed("dev.read", &d.t.c.rCalls, &d.t.c.rNs, 0, func() (int, error) { return d.Device.ReadAt(p, off) })
}

func (d *tracedDevice) ReadAtv(vecs []device.IOVec) (int, error) {
	return d.timed("dev.readv", &d.t.c.rCalls, &d.t.c.rNs, 0, func() (int, error) { return d.Device.ReadAtv(vecs) })
}

func (d *tracedDevice) Flush() error {
	var ignored atomic.Int64
	_, err := d.timed("dev.flush", &d.t.c.fCalls, &ignored, 0, func() (int, error) { return 0, d.Device.Flush() })
	return err
}

// traceSnap is a plain copy of the tracer's counters.
type traceSnap struct {
	sends, sendNs, clientReqs               int64
	wCalls, wSegs, wNs, rCalls, rNs, fCalls int64
}

func (t *tracer) snap() traceSnap {
	c := &t.c
	return traceSnap{
		sends: c.sends.Load(), sendNs: c.sendNs.Load(), clientReqs: c.clientReqs.Load(),
		wCalls: c.wCalls.Load(), wSegs: c.wSegs.Load(), wNs: c.wNs.Load(),
		rCalls: c.rCalls.Load(), rNs: c.rNs.Load(), fCalls: c.fCalls.Load(),
	}
}

func (s traceSnap) sub(o traceSnap) traceSnap {
	return traceSnap{
		sends: s.sends - o.sends, sendNs: s.sendNs - o.sendNs, clientReqs: s.clientReqs - o.clientReqs,
		wCalls: s.wCalls - o.wCalls, wSegs: s.wSegs - o.wSegs, wNs: s.wNs - o.wNs,
		rCalls: s.rCalls - o.rCalls, rNs: s.rNs - o.rNs, fCalls: s.fCalls - o.fCalls,
	}
}
