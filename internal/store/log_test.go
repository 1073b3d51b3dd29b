package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func openTemp(t *testing.T, dir string, max int64) *Cache {
	t.Helper()
	c, err := Open(Config{Dir: dir, MaxBytes: max})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func closeCache(t *testing.T, c *Cache) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartReplay(t *testing.T) {
	dir := t.TempDir()
	c := openTemp(t, dir, 0)
	want := []Verdict{
		{Adversarial: true, RE: 3.25, Class: 1},
		{RE: -0.5, Class: 2},
		{Adversarial: true, RE: math.Inf(1), Class: -1},
	}
	for i, v := range want {
		c.PutVerdict(testKey(byte(i+1)), v)
	}
	closeCache(t, c)

	// A fresh Open over the same dir must serve everything as hits.
	c2 := openTemp(t, dir, 0)
	defer closeCache(t, c2)
	if c2.Len() != len(want) {
		t.Fatalf("replayed Len = %d, want %d", c2.Len(), len(want))
	}
	for i, v := range want {
		got, ok := c2.Verdict(testKey(byte(i + 1)))
		if !ok || got != v {
			t.Fatalf("key %d: replayed verdict = %+v, %v; want %+v", i+1, got, ok, v)
		}
	}
}

func TestLatestWriteWinsOnReplay(t *testing.T) {
	dir := t.TempDir()
	c := openTemp(t, dir, 0)
	c.PutVerdict(testKey(1), Verdict{Class: 1})
	c.PutVerdict(testKey(1), Verdict{Class: 9})
	closeCache(t, c)

	c2 := openTemp(t, dir, 0)
	defer closeCache(t, c2)
	v, ok := c2.Verdict(testKey(1))
	if !ok || v.Class != 9 {
		t.Fatalf("replay kept %+v, want the later write", v)
	}
	if c2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c2.Len())
	}
}

// TestCorruptTailRecovery simulates a crash mid-append: the log's tail
// is damaged three different ways, and each time replay must keep
// every intact record, truncate the garbage, and accept new appends
// that survive the next restart.
func TestCorruptTailRecovery(t *testing.T) {
	corruptions := map[string]func(path string, t *testing.T){
		"truncated mid-record": func(path string, t *testing.T) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		},
		"flipped payload byte": func(path string, t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)-3] ^= 0xff
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"garbage frame appended": func(path string, t *testing.T) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := openTemp(t, dir, 0)
			c.PutVerdict(testKey(1), Verdict{Class: 1})
			c.PutVerdict(testKey(2), Verdict{Class: 2}) // tail record: the victim
			closeCache(t, c)

			path := filepath.Join(dir, logName)
			corrupt(path, t)

			c2 := openTemp(t, dir, 0)
			if _, ok := c2.Verdict(testKey(1)); !ok {
				t.Fatal("intact record lost")
			}
			// Appending after recovery must land after the truncated
			// tail, not behind garbage.
			c2.PutVerdict(testKey(3), Verdict{Class: 3})
			closeCache(t, c2)

			c3 := openTemp(t, dir, 0)
			defer closeCache(t, c3)
			if _, ok := c3.Verdict(testKey(1)); !ok {
				t.Fatal("intact record lost after reappend")
			}
			if _, ok := c3.Verdict(testKey(3)); !ok {
				t.Fatal("post-recovery append lost")
			}
		})
	}
}

func TestNotACacheLog(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("definitely not a log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a foreign file as the log")
	}
}

// TestRotationCompactsDeadWeight overwrites one key until the log
// passes the rotation threshold, then checks the log shrank back to
// roughly one live record and still replays correctly.
func TestRotationCompactsDeadWeight(t *testing.T) {
	dir := t.TempDir()
	c := openTemp(t, dir, 0)
	// 12,000 overwrites of a 93-byte record pass the 1 MiB threshold
	// (about 11,275 records) with only one record live.
	const writes = 12000
	for i := 0; i < writes; i++ {
		c.PutVerdict(testKey(1), Verdict{RE: float64(i), Class: int32(i)})
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() > rotateThreshold {
		t.Fatalf("log not compacted: %d bytes", fi.Size())
	}
	closeCache(t, c)

	c2 := openTemp(t, dir, 0)
	defer closeCache(t, c2)
	v, ok := c2.Verdict(testKey(1))
	if !ok || v.Class != writes-1 || v.RE != writes-1 {
		t.Fatalf("post-rotation replay = %+v, %v; want last write", v, ok)
	}
	if c2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c2.Len())
	}
}

// TestRotationPreservesLRUOrder checks the snapshot is written oldest
// first: after rotation + replay, eviction order matches pre-rotation
// recency.
func TestRotationPreservesLRUOrder(t *testing.T) {
	dir := t.TempDir()
	c := openTemp(t, dir, 0)
	for i := byte(1); i <= 3; i++ {
		c.PutVerdict(testKey(i), Verdict{Class: int32(i)})
	}
	c.Verdict(testKey(1)) // 1 becomes most recent; 2 is now LRU
	c.mu.Lock()
	c.maybeRotateLockedForTest()
	c.mu.Unlock()
	closeCache(t, c)

	// Replay under a budget that holds exactly two entries: key 2 (the
	// oldest) must be the one evicted.
	c2 := openTemp(t, dir, 2*entryOverhead)
	defer closeCache(t, c2)
	if _, ok := c2.Verdict(testKey(2)); ok {
		t.Fatal("LRU entry survived budgeted replay")
	}
	if _, ok := c2.Verdict(testKey(3)); !ok {
		t.Fatal("recent entry evicted")
	}
	if _, ok := c2.Verdict(testKey(1)); !ok {
		t.Fatal("most recent entry evicted")
	}
}

// maybeRotateLockedForTest forces a rotation regardless of thresholds.
func (c *Cache) maybeRotateLockedForTest() {
	c.logBytes = rotateThreshold + 2*c.liveLocked()
	c.maybeRotateLocked()
}

func TestEvictedEntriesStayDeadAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c := openTemp(t, dir, 2*entryOverhead)
	for i := byte(1); i <= 5; i++ {
		c.PutVerdict(testKey(i), Verdict{Class: int32(i)})
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	closeCache(t, c)

	// The log still holds all five records, but replay re-applies the
	// budget: only the two most recent survive.
	c2 := openTemp(t, dir, 2*entryOverhead)
	defer closeCache(t, c2)
	if c2.Len() != 2 {
		t.Fatalf("replayed Len = %d, want 2", c2.Len())
	}
	for i := byte(1); i <= 3; i++ {
		if _, ok := c2.Verdict(testKey(i)); ok {
			t.Fatalf("evicted key %d resurrected by replay", i)
		}
	}
	for i := byte(4); i <= 5; i++ {
		if _, ok := c2.Verdict(testKey(i)); !ok {
			t.Fatalf("recent key %d lost", i)
		}
	}
}

// TestOpenRefusesV1Log pins the format bump: a version-1 log, whose
// feature-vector records a v2 replay cannot parse, is refused with an
// error and left byte-identical, rather than replayed up to its first
// feature record and truncated there (losing every verdict after it).
func TestOpenRefusesV1Log(t *testing.T) {
	v1Record := func(dst []byte, kind byte, k Key, body []byte) []byte {
		payload := append([]byte{kind}, k.Content[:]...)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(k.Salt))
		payload = append(payload, k.Model[:]...)
		payload = append(payload, body...)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
		dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
		return append(dst, payload...)
	}
	verdictBody := []byte{1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 2, 0, 0, 0} // adversarial, RE 1.0, class 2
	featuresBody := binary.LittleEndian.AppendUint32(nil, 2)
	featuresBody = binary.LittleEndian.AppendUint64(featuresBody, math.Float64bits(0.5))
	featuresBody = binary.LittleEndian.AppendUint64(featuresBody, math.Float64bits(-1))

	raw := binary.LittleEndian.AppendUint32([]byte(logMagic), 1)
	raw = v1Record(raw, 1, testKey(1), verdictBody)
	raw = v1Record(raw, 2, testKey(1), featuresBody)
	raw = v1Record(raw, 1, testKey(2), verdictBody)

	dir := t.TempDir()
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := Open(Config{Dir: dir}); err == nil {
		closeCache(t, c)
		t.Fatal("Open accepted a version-1 log")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("refused log was modified: %d bytes, was %d", len(got), len(raw))
	}
}

// TestReplayBoundsClaimedLength checks that replay never sizes a
// buffer from a frame's claimed length: a frame claiming a payload just
// under 64 MiB ends the replay like a torn frame, is truncated away,
// and costs Open well under 1 MiB of allocation.
func TestReplayBoundsClaimedLength(t *testing.T) {
	raw := binary.LittleEndian.AppendUint32([]byte(logMagic), logVersion)
	raw = binary.LittleEndian.AppendUint32(raw, 64<<20-1)
	raw = binary.LittleEndian.AppendUint32(raw, 0)
	raw = append(raw, make([]byte, 4096)...)

	dir := t.TempDir()
	path := filepath.Join(dir, logName)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Open(Config{Dir: dir})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer closeCache(t, c)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Open allocated %d bytes replaying one bogus frame", alloc)
	}
	if c.Len() != 0 {
		t.Fatalf("replayed Len = %d, want 0", c.Len())
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 8 {
		t.Fatalf("log is %d bytes after replay, want the 8-byte header", fi.Size())
	}
}

// FuzzReplay feeds arbitrary bytes to Open as the record log. Open must
// never panic; a file without a v2 header (other than an empty one) is
// refused and left untouched; a file with one opens, keeps an intact
// prefix ending on a record boundary, and reopens to the same verdicts.
func FuzzReplay(f *testing.F) {
	dir := f.TempDir()
	c, err := Open(Config{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	c.PutVerdict(testKey(1), Verdict{Adversarial: true, RE: 3.25, Class: 1})
	c.PutVerdict(testKey(2), Verdict{RE: math.NaN(), Class: 2})
	c.PutVerdict(testKey(1), Verdict{RE: -1, Class: 3})
	if err := c.Close(); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(good)
	for _, n := range []int{4, 8, 8 + 4, 8 + frameLen - 1, 8 + frameLen + 40, len(good) - 1} {
		f.Add(good[:n]) // torn
	}
	for _, i := range []int{2, 5, 8, 12, 8 + frameLen + 30, len(good) - 1} {
		flipped := bytes.Clone(good)
		flipped[i] ^= 0x10
		f.Add(flipped)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		validHeader := len(data) >= 8 && string(data[:4]) == logMagic &&
			binary.LittleEndian.Uint32(data[4:8]) == logVersion
		c, err := Open(Config{Dir: dir})
		if err != nil {
			if validHeader || len(data) == 0 {
				t.Fatalf("Open refused a log with a valid header: %v", err)
			}
			if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("refused file was modified (read err %v)", rerr)
			}
			return
		}
		if !validHeader && len(data) != 0 {
			closeCache(t, c)
			t.Fatal("Open accepted a file without a v2 header")
		}
		want := make(map[Key]Verdict, c.Len())
		for k, e := range c.index {
			want[k] = e.verdict
		}
		closeCache(t, c)

		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 && !bytes.HasPrefix(data, kept) {
			t.Fatal("replay kept bytes that are not a prefix of the input")
		}
		if len(kept) < 8 || (len(kept)-8)%frameLen != 0 {
			t.Fatalf("replay kept %d bytes: not a record boundary", len(kept))
		}

		c2 := openTemp(t, dir, 0)
		defer closeCache(t, c2)
		if c2.Len() != len(want) {
			t.Fatalf("reopened Len = %d, want %d", c2.Len(), len(want))
		}
		for k, v := range want {
			got, ok := c2.Verdict(k)
			if !ok || got.Adversarial != v.Adversarial || got.Class != v.Class ||
				math.Float64bits(got.RE) != math.Float64bits(v.RE) {
				t.Fatalf("reopened verdict for salt %d = %+v, %v; want %+v", k.Salt, got, ok, v)
			}
		}
	})
}
