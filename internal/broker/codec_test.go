package broker

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/icn-gaming/gcopss/internal/cd"
	"github.com/icn-gaming/gcopss/internal/flowctl"
	"github.com/icn-gaming/gcopss/internal/wire"
)

// fmtObject, fmtManifest and fmtRecent build the reference payloads with fmt:
// the append-style codec must match them byte for byte.
func fmtObject(id string, version, size int) []byte {
	return append([]byte(fmt.Sprintf("obj:%s:%d:", id, version)), make([]byte, size)...)
}

func fmtManifest(b *Broker, leaf cd.CD) []byte {
	var lines []string
	for _, id := range b.changedObjectIDs(leaf) {
		lines = append(lines, fmt.Sprintf("%s:%d", id, int(b.objects[leaf.Key()][id].size)))
	}
	return []byte(strings.Join(lines, "\n"))
}

func fmtRecent(b *Broker, leaf cd.CD) []byte {
	var lines []string
	for _, e := range b.recent[leaf.Key()] {
		lines = append(lines, fmt.Sprintf("%s:%d:%s:%d", e.Origin, e.Seq, e.ObjID, e.Size))
	}
	return []byte(strings.Join(lines, "\n"))
}

func query(t *testing.T, b *Broker, name string) []byte {
	t.Helper()
	out := b.HandlePacket(&wire.Packet{Type: wire.TypeInterest, Name: name, SentAt: 7})
	if len(out) != 1 || out[0].Type != wire.TypeData || out[0].Name != name || out[0].SentAt != 7 {
		t.Fatalf("query %s answered %+v", name, out)
	}
	return out[0].Payload
}

func TestCodecMatchesFmtPayloads(t *testing.T) {
	for _, c := range []struct {
		id            string
		version, size int
	}{
		{"a", 0, 0}, {"a", 1, 1}, {"obj-17", 42, 300}, {"ζ", 1 << 40, 4096}, {"", 7, 3}, {"neg", -5, 2},
	} {
		got := encodeObject(c.id, c.version, c.size)
		if want := fmtObject(c.id, c.version, c.size); !bytes.Equal(got, want) {
			t.Errorf("encodeObject(%q, %d, %d) = %q, want %q", c.id, c.version, c.size, got, want)
		}
		id, version, manifest, ok := ParseObject(got)
		if !ok || id != c.id || version != c.version || manifest != -1 {
			t.Errorf("ParseObject(encodeObject(%q, %d, %d)) = %q %d %d %v", c.id, c.version, c.size, id, version, manifest, ok)
		}
	}

	b := newTestBroker()
	leaf := cd.MustParse("/1/1")
	for i, size := range []int{5, 300, 0, 4096, 17, 64} {
		for range i%3 + 1 {
			pkt := update("/1/1", fmt.Sprintf("o%d", i), size)
			pkt.Seq = uint64(i) << 33
			b.HandlePacket(pkt)
		}
	}
	if got, want := query(t, b, ManifestName(leaf)), fmtManifest(b, leaf); !bytes.Equal(got, want) {
		t.Errorf("_manifest = %q, want %q", got, want)
	}
	m := ParseManifest(query(t, b, ManifestName(leaf)))
	for id, o := range b.objects[leaf.Key()] {
		if m[id] != int(o.size) {
			t.Errorf("ParseManifest[%q] = %d, want %d", id, m[id], int(o.size))
		}
		if got, want := query(t, b, ObjectName(leaf, id)), fmtObject(id, o.version, int(o.size)); !bytes.Equal(got, want) {
			t.Errorf("object %s = %q, want %q", id, got, want)
		}
	}
	if got, want := query(t, b, ObjectName(leaf, "never")), fmtObject("never", 0, 0); !bytes.Equal(got, want) {
		t.Errorf("version-0 object = %q, want %q", got, want)
	}
	if got, want := query(t, b, RecentName(leaf)), fmtRecent(b, leaf); !bytes.Equal(got, want) {
		t.Errorf("_recent = %q, want %q", got, want)
	}
	if got := ParseRecent(query(t, b, RecentName(leaf))); len(got) != len(b.recent[leaf.Key()]) {
		t.Errorf("ParseRecent read %d updates, want %d", len(got), len(b.recent[leaf.Key()]))
	}
	empty := cd.MustParse("/1/")
	for _, name := range []string{ManifestName(empty), RecentName(empty)} {
		if got := query(t, b, name); got == nil || len(got) != 0 {
			t.Errorf("%s on an empty leaf = %#v, want an empty non-nil payload", name, got)
		}
	}
}

// TestCodecAllocs pins the QR fetch's per-object allocations: the object
// payload is one buffer, parsing it costs at most the id, and a fetch
// handling one object's Data allocates only the follow-up Interest it returns.
func TestCodecAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(100, func() { encodeObject("obj-17", 42, 300) }); got != 1 {
		t.Errorf("encodeObject = %v allocs, want 1", got)
	}
	payload := encodeObject("obj-17", 42, 300)
	if got := testing.AllocsPerRun(100, func() { ParseObject(payload) }); got > 1 {
		t.Errorf("ParseObject = %v allocs, want <= 1", got)
	}

	leaf := cd.MustParse("/1/2")
	const objects = 400
	ids := make([]string, objects)
	answers := make(map[string]*wire.Packet, objects)
	for i := range ids {
		ids[i] = fmt.Sprintf("o%03d", i)
		answers[ObjectName(leaf, ids[i])] = &wire.Packet{Type: wire.TypeData, Name: ObjectName(leaf, ids[i]), Payload: encodeObject(ids[i], 1, 8)}
	}
	f := NewFetch(leaf, flowctl.WithWindow(4, 4, 4))
	t0 := time.Unix(0, 0)
	f.StartAt(t0)
	asked := make([]string, 0, objects)
	out, _ := f.HandleDataAt(t0, manifestData(leaf, ids...))
	for _, p := range out {
		asked = append(asked, p.Name)
	}
	next := 0
	got := testing.AllocsPerRun(200, func() {
		out, _ := f.HandleDataAt(t0, answers[asked[next]])
		next++
		for _, p := range out {
			asked = append(asked, p.Name)
		}
	})
	if got > 3 {
		t.Errorf("HandleDataAt for one object = %v allocs, want <= 3 (the Interest's name, packet and slice)", got)
	}
}
