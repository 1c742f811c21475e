package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSessionLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.dslog")
	rec := NewMemRecorder()
	s := NewSessionWith(Options{Recorder: rec, CaptureSites: true})
	id1 := s.Register(KindList, "List[int]", "population", 0)
	id2 := s.Register(KindArray, "Array[float64]", "", 0)
	for i := 0; i < 200; i++ {
		s.Emit(id1, OpInsert, i, i+1)
	}
	s.Emit(id2, OpWrite, 0, 4)

	if err := SaveSessionLog(path, s, rec.Events()); err != nil {
		t.Fatal(err)
	}
	loaded, events, err := LoadSessionLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.NumInstances(); got != 2 {
		t.Fatalf("replayed registry has %d instances", got)
	}
	inst1, ok := loaded.Instance(id1)
	if !ok || inst1.Kind != KindList || inst1.TypeName != "List[int]" || inst1.Label != "population" {
		t.Errorf("instance 1 = %+v", inst1)
	}
	orig, _ := s.Instance(id1)
	if inst1.Site != orig.Site {
		t.Errorf("site lost: %+v vs %+v", inst1.Site, orig.Site)
	}
	if len(events) != 201 {
		t.Fatalf("events = %d", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i-1].Seq >= events[i].Seq {
			t.Fatal("events not ordered")
		}
	}
	if events[200].Instance != id2 || events[200].Op != OpWrite {
		t.Errorf("last event = %v", events[200])
	}
}

func TestSessionLogEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.dslog")
	s := NewSession()
	if err := SaveSessionLog(path, s, nil); err != nil {
		t.Fatal(err)
	}
	loaded, events, err := LoadSessionLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumInstances() != 0 || len(events) != 0 {
		t.Errorf("empty log: %d instances, %d events", loaded.NumInstances(), len(events))
	}
}

func TestSessionLogErrors(t *testing.T) {
	if _, _, err := LoadSessionLog(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.dslog")
	if err := os.WriteFile(bad, []byte("DSSPY1\n\x42"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSessionLog(bad); err == nil {
		t.Error("unknown frame accepted")
	}
}

func TestSessionLogLongStrings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "long.dslog")
	s := NewSession()
	long := make([]byte, 70000)
	for i := range long {
		long[i] = 'x'
	}
	s.Register(KindList, string(long), "", 0)
	if err := SaveSessionLog(path, s, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadSessionLog(path)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := loaded.Instance(1)
	if len(inst.TypeName) != len(long) {
		t.Errorf("long string round-tripped to %d bytes, want %d", len(inst.TypeName), len(long))
	}
}

// TestSessionLogRejectsHugeInstanceID: a registry id far past the registry
// read so far is a corrupt record, not a request for gigabytes of
// placeholder slots. The strict load fails on the gap; the salvaging loads
// refuse that record and keep the rest of the registry.
func TestSessionLogRejectsHugeInstanceID(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteInstances([]Instance{
		{ID: 1, Kind: KindList, TypeName: "[]int"},
		{ID: 1 << 30, Kind: KindList, TypeName: "[]int"},
		{ID: 2, Kind: KindDictionary, TypeName: "map[int]int"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "huge-id.dslog")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSessionLog(path); !errors.Is(err, ErrBadStream) {
		t.Fatalf("strict load: err %v, want ErrBadStream", err)
	}
	s, _, rec, err := RecoverSessionLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumInstances() != 2 || rec.Instances != 2 || rec.RejectedInstances != 1 || rec.Clean() {
		t.Fatalf("salvage kept %d instances (diagnostic %v), want 2 kept, 1 refused and a damaged verdict", s.NumInstances(), rec)
	}
	if inst, _ := s.Instance(2); inst.Kind != KindDictionary {
		t.Fatalf("instance 2 restored as %+v, want the dictionary after the refused record", inst)
	}
	cs, _, crec, err := RecoverSessionColumns(path)
	if err != nil {
		t.Fatal(err)
	}
	if cs.NumInstances() != 2 || crec.RejectedInstances != 1 || crec.Clean() {
		t.Fatalf("columnar salvage kept %d instances (diagnostic %v), want 2 kept and 1 refused", cs.NumInstances(), crec)
	}
}

// TestSessionLogLoadsRegistryPastMillion: there is no ceiling on instance
// ids. A contiguous registry with more than 1<<20 instances — what a long
// run that registers that many containers writes — loads strictly, and the
// salvaging load reads it as intact.
func TestSessionLogLoadsRegistryPastMillion(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine decode of a million records; the race detector only makes it slow")
	}
	const n = 1<<20 + 2
	instances := make([]Instance, n)
	for i := range instances {
		instances[i] = Instance{ID: InstanceID(i + 1), Kind: KindList}
	}
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteBatch([]Event{{Seq: 1, Instance: n, Op: OpInsert, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteInstances(instances); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "big-registry.dslog")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, events, err := LoadSessionLog(path)
	if err != nil {
		t.Fatalf("strict load: %v", err)
	}
	if s.NumInstances() != n || len(events) != 1 {
		t.Fatalf("strict load: %d instances, %d events; want %d, 1", s.NumInstances(), len(events), n)
	}
	cs, _, err := LoadSessionColumns(path)
	if err != nil {
		t.Fatalf("columnar strict load: %v", err)
	}
	if cs.NumInstances() != n {
		t.Fatalf("columnar strict load: %d instances, want %d", cs.NumInstances(), n)
	}
	rs, _, rec, err := RecoverSessionLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumInstances() != n || !rec.Clean() {
		t.Fatalf("salvage: %d instances (diagnostic %v), want %d and intact", rs.NumInstances(), rec, n)
	}
}

// TestRestoreInstancePlaceholderBudget pins the placeholder rule: gaps of
// lost records are filled while placeholders stay within one per record
// restored plus placeholderSlack, and a record past that is refused without
// growing the registry.
func TestRestoreInstancePlaceholderBudget(t *testing.T) {
	s := NewSessionWith(Options{Recorder: NullRecorder{}})
	// Every other record lost: one placeholder per record restored.
	const kept = 4 * placeholderSlack
	for i := 0; i < kept; i++ {
		id := InstanceID(2*i + 2)
		if !s.restoreInstance(Instance{ID: id, Kind: KindList}) {
			t.Fatalf("restore of id %d refused with every other record lost", id)
		}
	}
	if s.NumInstances() != 2*kept {
		t.Fatalf("registry holds %d slots, want %d", s.NumInstances(), 2*kept)
	}
	// The budget left is kept+slack-kept placeholders: exactly slack.
	edge := InstanceID(2*kept + placeholderSlack + 1)
	if s.restoreInstance(Instance{ID: edge + 1, Kind: KindList}) {
		t.Fatalf("restore of id %d accepted past the placeholder budget", edge+1)
	}
	if s.NumInstances() != 2*kept {
		t.Fatalf("refused restore grew the registry to %d slots", s.NumInstances())
	}
	if !s.restoreInstance(Instance{ID: edge, Kind: KindList}) {
		t.Fatalf("restore of id %d refused inside the placeholder budget", edge)
	}
	// A lost record's slot can still be filled in afterwards.
	if !s.restoreInstance(Instance{ID: 1, Kind: KindDictionary}) {
		t.Fatal("restore into a placeholder slot refused")
	}
	if inst, _ := s.Instance(1); inst.Kind != KindDictionary {
		t.Fatalf("slot 1 holds %+v after restore", inst)
	}
}
