package store

// The record log. Format:
//
//	header   "SOTC" | u32 version            (8 bytes)
//	record   u32 len | u32 crc32(payload) | payload
//	payload  content [32] | salt u64 | model [32] |
//	         flag u8 | u64 float bits of RE | u32 class   (85 bytes)
//
// All integers are little-endian. Every payload has the same length,
// so the length prefix and the CRC make a torn tail self-evident on
// replay: the first record with any other length or a failing checksum
// ends the replay, and the file is truncated back to the end of the
// last intact record. Version 1 logs also carried feature-vector
// records; Open refuses them rather than replaying up to the first
// such record and truncating every verdict after it.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

const (
	logName    = "cache.log"
	logMagic   = "SOTC"
	logVersion = 2

	payloadLen = 32 + 8 + 32 + 1 + 8 + 4
	frameLen   = 8 + payloadLen
)

// openLog replays (or creates) the log at path and leaves c.f open for
// appending at the end of the last intact record.
func (c *Cache) openLog(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	good, err := c.replay(f)
	if err != nil {
		_ = f.Close()
		return err
	}
	// Drop any torn or corrupt tail so appends land after intact data.
	if fi, err := f.Stat(); err == nil && fi.Size() > good {
		if err := f.Truncate(good); err != nil {
			_ = f.Close()
			return fmt.Errorf("store: truncate corrupt tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return fmt.Errorf("store: %w", err)
	}
	c.f = f
	c.logBytes = good
	return nil
}

// replay scans the log, inserting every intact record into the index
// (later records win, and the LRU order follows log order so the
// oldest writes evict first). It returns the offset just past the last
// intact record. A fresh/empty file gets its header written here.
func (c *Cache) replay(f *os.File) (int64, error) {
	var hdr [8]byte
	n, err := io.ReadFull(f, hdr[:])
	if err == io.EOF && n == 0 {
		binary.LittleEndian.PutUint32(hdr[4:], logVersion)
		copy(hdr[:4], logMagic)
		if _, err := f.Write(hdr[:]); err != nil {
			return 0, fmt.Errorf("store: write header: %w", err)
		}
		return int64(len(hdr)), nil
	}
	if err != nil || string(hdr[:4]) != logMagic || binary.LittleEndian.Uint32(hdr[4:]) != logVersion {
		return 0, fmt.Errorf("store: %s is not a cache log", f.Name())
	}
	good := int64(len(hdr))
	var rec [frameLen]byte
	for {
		// A short read (clean EOF or torn frame), a frame claiming any
		// other payload length, or a checksum mismatch ends the replay.
		if _, err := io.ReadFull(f, rec[:]); err != nil {
			return good, nil
		}
		payload := rec[8:]
		if binary.LittleEndian.Uint32(rec[:4]) != payloadLen ||
			binary.LittleEndian.Uint32(rec[4:8]) != crc32.ChecksumIEEE(payload) {
			return good, nil
		}
		c.insert(decodeRecord(payload), false)
		good += frameLen
	}
}

// appendLocked encodes e and appends it to the log. Caller holds c.mu.
// On write failure the log is abandoned (sticky ioErr, cache becomes
// memory-only) rather than risking a half-written interior record.
func (c *Cache) appendLocked(e *entry) {
	c.buf = appendRecord(c.buf[:0], e)
	if _, err := c.f.Write(c.buf); err != nil {
		c.ioErr = fmt.Errorf("store: append: %w", err)
		_ = c.f.Close()
		c.f = nil
		return
	}
	c.logBytes += int64(len(c.buf))
	c.maybeRotateLocked()
}

// rotateThreshold is the minimum log size before compaction is
// considered; below it rewriting is not worth the I/O.
const rotateThreshold = 1 << 20

// maybeRotateLocked compacts the log when more than half of it is dead
// weight (overwritten or evicted records). The live entries are
// written oldest-first to a temp file which atomically replaces the
// log, so a crash at any point leaves either the old or the new log
// intact. Caller holds c.mu.
func (c *Cache) maybeRotateLocked() {
	if c.logBytes < rotateThreshold || c.logBytes < 2*c.liveLocked() {
		return
	}
	path := c.f.Name()
	tmp, err := os.CreateTemp(c.dir, logName+".tmp*")
	if err != nil {
		c.ioErr = fmt.Errorf("store: rotate: %w", err)
		return
	}
	written, err := c.writeSnapshot(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		c.ioErr = fmt.Errorf("store: rotate: %w", err)
		_ = c.f.Close()
		c.f = nil
		return
	}
	// The old handle now points at an unlinked inode; reopen the new log
	// for appending.
	if err := c.f.Close(); err != nil {
		c.ioErr = fmt.Errorf("store: rotate: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		c.ioErr = fmt.Errorf("store: rotate: %w", err)
		c.f = nil
		return
	}
	c.f = f
	c.logBytes = written
}

// writeSnapshot writes the header plus every live entry, LRU-oldest
// first so a replay reconstructs the same recency order.
func (c *Cache) writeSnapshot(w io.Writer) (int64, error) {
	var hdr [8]byte
	copy(hdr[:4], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:], logVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	total := int64(len(hdr))
	for e := c.tail; e != nil; e = e.prev {
		c.buf = appendRecord(c.buf[:0], e)
		if _, err := w.Write(c.buf); err != nil {
			return 0, err
		}
		total += int64(len(c.buf))
	}
	return total, nil
}

// appendRecord encodes e as one framed record into dst.
func appendRecord(dst []byte, e *entry) []byte {
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // frame placeholder
	body := len(dst)
	dst = append(dst, e.key.Content[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.key.Salt))
	dst = append(dst, e.key.Model[:]...)
	flag := byte(0)
	if e.verdict.Adversarial {
		flag = 1
	}
	dst = append(dst, flag)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.verdict.RE))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.verdict.Class))
	payload := dst[body:]
	binary.LittleEndian.PutUint32(dst[body-8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[body-4:], crc32.ChecksumIEEE(payload))
	return dst
}

// decodeRecord parses one payloadLen-byte payload back into an entry.
func decodeRecord(p []byte) *entry {
	e := &entry{}
	copy(e.key.Content[:], p[0:32])
	e.key.Salt = int64(binary.LittleEndian.Uint64(p[32:40]))
	copy(e.key.Model[:], p[40:72])
	e.verdict.Adversarial = p[72] == 1
	e.verdict.RE = math.Float64frombits(binary.LittleEndian.Uint64(p[73:81]))
	e.verdict.Class = int32(binary.LittleEndian.Uint32(p[81:85]))
	return e
}
