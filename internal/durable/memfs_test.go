package durable

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestMemFSHandleFollowsName: a handle reaches whatever file its name names
// at the time of each call, as a lookup by name would. Each case opens a
// write handle and a read handle on "d/a", changes the namespace, and then
// checks what a Write, a Sync and a Read through the old handles do.
func TestMemFSHandleFollowsName(t *testing.T) {
	const name = "d/a"
	cases := []struct {
		name   string
		change func(m *MemFS)
		// gone: the name resolves to nothing, so every call fails with
		// "file removed". Otherwise the write must land in the file the
		// name now holds, whose bytes are then want, and the read handle
		// reads want from where it stopped.
		gone bool
		want string
	}{
		{name: "removed", change: func(m *MemFS) { m.Remove(name) }, gone: true},
		{name: "renamed-away", change: func(m *MemFS) { m.Rename(name, "d/b") }, gone: true},
		{name: "renamed-onto", change: func(m *MemFS) {
			f, _ := m.Create("d/b")
			f.Write([]byte("other"))
			m.Rename("d/b", name)
		}, want: "otherz"},
		{name: "recreated-by-create", change: func(m *MemFS) { m.Create(name) }, want: "z"},
		{name: "recreated-by-open-append", change: func(m *MemFS) {
			m.Remove(name)
			m.OpenAppend(name)
		}, want: "z"},
		{name: "set-raw-data", change: func(m *MemFS) { m.SetRawData(name, []byte("raw")) }, want: "rawz"},
		{name: "reboot-clean", change: func(m *MemFS) { m.Reboot() }, want: "xyz"},
		{name: "reboot-after-crash-unpinned", change: func(m *MemFS) {
			m.Kill()
			m.Reboot()
		}, gone: true},
		{name: "reboot-after-crash-pinned", change: func(m *MemFS) {
			m.SyncDir("d")
			m.Kill()
			m.Reboot()
		}, want: "xyz"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMemFS(FaultPlan{})
			w, err := m.OpenAppend(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("xy")); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			r, err := m.Open(name)
			if err != nil {
				t.Fatal(err)
			}
			var one [1]byte
			if n, err := r.Read(one[:]); n != 1 || err != nil {
				t.Fatalf("read before the change: %d, %v", n, err)
			}

			tc.change(m)

			n, werr := w.Write([]byte("z"))
			serr := w.Sync()
			rest, rerr := io.ReadAll(r)
			if tc.gone {
				for op, err := range map[string]error{"write": werr, "sync": serr, "read": rerr} {
					if err == nil || !strings.Contains(err.Error(), "file removed") {
						t.Errorf("%s: err = %v, want file removed", op, err)
					}
				}
				if n != 0 || len(rest) != 0 {
					t.Errorf("write n = %d, read %q; want nothing", n, rest)
				}
				if got := m.RawData(name); got != nil {
					t.Errorf("RawData = %q, want no file", got)
				}
				return
			}
			if n != 1 || werr != nil || serr != nil || rerr != nil {
				t.Fatalf("write %d, %v; sync %v; read %v", n, werr, serr, rerr)
			}
			if got := m.RawData(name); string(got) != tc.want {
				t.Fatalf("file holds %q, want %q", got, tc.want)
			}
			if want := tc.want[1:]; !bytes.Equal(rest, []byte(want)) {
				t.Fatalf("read handle read %q, want %q", rest, want)
			}
		})
	}
}

// TestMemFSBufferGrowsByDoubling: a file's bytes survive the buffer's
// growth, and every growth at least doubles it, so a growing segment is
// copied a logarithmic number of times.
func TestMemFSBufferGrowsByDoubling(t *testing.T) {
	m := NewMemFS(FaultPlan{})
	f, err := m.OpenAppend("a")
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	last := 0
	for i := 0; i < 4096; i++ {
		p := bytes.Repeat([]byte{byte(i)}, 1+i%33)
		if _, err := f.Write(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p...)
		if c := cap(m.files["a"].data); c != last {
			if last > 0 && c < 2*last {
				t.Fatalf("at %d bytes the buffer grew from %d to %d, less than double", len(want), last, c)
			}
			last = c
		}
	}
	if got := m.RawData("a"); !bytes.Equal(got, want) {
		t.Fatalf("file holds %d bytes, want %d (or different bytes)", len(got), len(want))
	}
}
