package osd

import (
	"testing"
	"time"

	"rebloc/internal/device"
	"rebloc/internal/messenger"
	"rebloc/internal/nvm"
	"rebloc/internal/qos"
	"rebloc/internal/store"
	"rebloc/internal/wire"
)

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeOriginal: "Original",
		ModeRTCv1:    "RTC-v1",
		ModeRTCv2:    "RTC-v2",
		ModeRTCv3:    "RTC-v3",
		ModeCOSOnly:  "COS",
		ModePTC:      "PTC",
		ModeProposed: "Proposed",
		ModeIdeal:    "Ideal",
	}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("%d.String() = %s, want %s", m, m.String(), s)
		}
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode must render")
	}
}

func TestModePredicates(t *testing.T) {
	if !ModeProposed.usesOplog() || ModePTC.usesOplog() {
		t.Fatal("usesOplog wrong")
	}
	if !ModePTC.usesPTC() || !ModeProposed.usesPTC() || ModeOriginal.usesPTC() {
		t.Fatal("usesPTC wrong")
	}
	if !ModeRTCv2.rtc() || ModeProposed.rtc() {
		t.Fatal("rtc wrong")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("missing transport must fail")
	}
	if _, err := New(Config{Transport: messenger.NewInProc()}); err == nil {
		t.Fatal("missing device must fail")
	}
	if _, err := New(Config{
		Transport: messenger.NewInProc(),
		Dev:       device.NewMem(256 << 20),
		Mode:      ModeProposed,
	}); err == nil {
		t.Fatal("proposed without NVM bank must fail")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{
		Transport: messenger.NewInProc(),
		Dev:       device.NewMem(256 << 20),
	}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != ModeOriginal || cfg.PGWorkers != 2 || cfg.FlushThreshold != 16 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.NonPriority != cfg.Partitions {
		t.Fatal("NonPriority should default to Partitions")
	}
}

func TestPendingSetLifecycle(t *testing.T) {
	p := newPendingSet()
	var got wire.Status
	fired := 0
	id := p.register(2, func(s wire.Status) { got = s; fired++ })
	p.complete(id, 1, wire.StatusOK)
	if fired != 0 {
		t.Fatal("fired early")
	}
	p.complete(id, 2, wire.StatusOK)
	if fired != 1 || got != wire.StatusOK {
		t.Fatalf("fired=%d got=%s", fired, got)
	}
	// Duplicate completion is ignored.
	p.complete(id, 3, wire.StatusIOError)
	if fired != 1 {
		t.Fatal("duplicate completion fired")
	}
}

func TestPendingSetFirstErrorWins(t *testing.T) {
	p := newPendingSet()
	var got wire.Status
	id := p.register(3, func(s wire.Status) { got = s })
	p.complete(id, 1, wire.StatusOK)
	p.complete(id, 2, wire.StatusIOError)
	p.complete(id, 3, wire.StatusOK)
	if got != wire.StatusIOError {
		t.Fatalf("got %s, want IOError", got)
	}
}

func TestPendingSetZeroNeedFiresImmediately(t *testing.T) {
	p := newPendingSet()
	fired := false
	p.register(0, func(s wire.Status) { fired = true })
	if !fired {
		t.Fatal("zero-need op must complete immediately")
	}
	if p.size() != 0 {
		t.Fatal("zero-need op must not linger")
	}
}

func TestPendingSetSweep(t *testing.T) {
	p := newPendingSet()
	var got wire.Status
	p.register(1, func(s wire.Status) { got = s })
	time.Sleep(10 * time.Millisecond)
	if n := p.sweep(time.Millisecond); n != 1 {
		t.Fatalf("sweep failed %d ops, want 1", n)
	}
	if got != wire.StatusAgain {
		t.Fatalf("swept op got %s", got)
	}
	if p.size() != 0 {
		t.Fatal("swept op still pending")
	}
}

func TestNullStoreBehaviour(t *testing.T) {
	s := newNullStore()
	oid := wire.ObjectID{Pool: 1, Name: "x"}
	var txn store.Transaction
	txn.AddWrite(1, oid, 100, []byte("abc"))
	if err := s.Submit(&txn); err != nil {
		t.Fatal(err)
	}
	info, err := s.Stat(1, oid)
	if err != nil || info.Size != 103 || info.Version != 1 {
		t.Fatalf("Stat = %+v, %v", info, err)
	}
	data, err := s.Read(1, oid, 0, 8)
	if err != nil || len(data) != 8 {
		t.Fatalf("Read = %v, %v", data, err)
	}
	var del store.Transaction
	del.AddDelete(1, oid)
	if err := s.Submit(&del); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat(1, oid); err != store.ErrNotFound {
		t.Fatalf("after delete: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineTxnShape(t *testing.T) {
	dev := device.NewMem(256 << 20)
	o, err := New(Config{
		Transport: messenger.NewInProc(),
		Dev:       dev,
		Mode:      ModeOriginal,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	op := wire.Op{Kind: wire.OpWrite, OID: wire.ObjectID{Pool: 1, Name: "o"}, Data: []byte("x"), Seq: 7, Version: 7}
	txn := o.buildBaselineTxn(3, op)
	// data write + object_info + snapset + pglog = 4 ops, matching the
	// paper's description of Ceph's per-write metadata.
	if len(txn.Ops) != 4 {
		t.Fatalf("baseline txn has %d ops, want 4", len(txn.Ops))
	}
	kinds := map[store.TxnKind]int{}
	for _, op := range txn.Ops {
		kinds[op.Kind]++
	}
	if kinds[store.TxnWrite] != 1 || kinds[store.TxnSetAttr] != 2 || kinds[store.TxnPutKV] != 1 {
		t.Fatalf("baseline txn kinds = %v", kinds)
	}
}

func TestReadKeyDistinct(t *testing.T) {
	if readKey(1, 5) == readKey(2, 5) || readKey(1, 5) == readKey(1, 6) {
		t.Fatal("readKey collisions")
	}
}

func TestPGStateSeq(t *testing.T) {
	s := &pgState{clean: true}
	if s.nextSeq() != 1 || s.nextSeq() != 2 {
		t.Fatal("nextSeq not monotonic")
	}
	s.bumpSeq(10)
	if s.nextSeq() != 11 {
		t.Fatal("bumpSeq ignored")
	}
	s.bumpSeq(5) // lower: no effect
	if s.nextSeq() != 12 {
		t.Fatal("bumpSeq regressed")
	}
}

func TestOSDStandaloneStartClose(t *testing.T) {
	tr := messenger.NewInProc()
	bank := nvm.NewBank(32 << 20)
	o, err := New(Config{
		ID:         7,
		Transport:  tr,
		ListenAddr: "osd.7",
		Dev:        device.NewMem(256 << 20),
		Bank:       bank,
		Mode:       ModeProposed,
		Partitions: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if o.Addr() != "osd.7" || o.ID() != 7 {
		t.Fatalf("identity wrong: %s %d", o.Addr(), o.ID())
	}
	if o.Epoch() != 0 {
		t.Fatal("no map yet, epoch must be 0")
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatal("double close must be safe")
	}
}

// replyConn records the replies an admission check sends.
type replyConn struct{ sent []wire.Message }

func (c *replyConn) Send(m wire.Message) error   { c.sent = append(c.sent, m); return nil }
func (c *replyConn) Recv() (wire.Message, error) { select {} }
func (c *replyConn) Close() error                { return nil }
func (c *replyConn) RemoteAddr() string          { return "test" }

// TestAdmitLeavesRejectBandOnceDrained: a PG whose throttle entered the
// reject band must admit client writes again once its log has drained.
// While every client write bounces, no append samples the occupancy, so
// admission has to take the sample itself; reading the cached state kept
// the PG rejecting forever and hung the client in a retry loop.
func TestAdmitLeavesRejectBandOnceDrained(t *testing.T) {
	o, err := New(Config{
		ID:         3,
		Transport:  messenger.NewInProc(),
		ListenAddr: "osd.admit",
		Dev:        device.NewMem(64 << 20),
		Bank:       nvm.NewBank(16 << 20),
		Mode:       ModeProposed,
		Partitions: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	const pg = 2
	pgs, err := o.pgStateFor(pg)
	if err != nil {
		t.Fatal(err)
	}
	// The log filled past the reject threshold, then a drain emptied it.
	if st := pgs.throttle.Observe(1); st != qos.StateReject {
		t.Fatalf("throttle state = %v, want reject", st)
	}
	if occ := pgs.log.Occupancy(); occ != 0 {
		t.Fatalf("occupancy = %v, want an empty log", occ)
	}
	// The throttle steps down one band per sample: reject to delay on the
	// first write, delay to clear on the next. Both writes are admitted.
	var conn replyConn
	oid := wire.ObjectID{Pool: 1, Name: "admit"}
	for i, want := range []qos.State{qos.StateDelay, qos.StateClear} {
		if !o.admitMutation(&conn, uint64(i+1), pg, oid) {
			t.Fatalf("write %d rejected against an empty log (replies %v)", i, conn.sent)
		}
		if st := pgs.throttle.State(); st != want {
			t.Fatalf("throttle state = %v after write %d, want %v", st, i, want)
		}
	}
	if n := o.drainPressure.Load(); n != 0 {
		t.Fatalf("drainPressure = %d, want 0", n)
	}
}
