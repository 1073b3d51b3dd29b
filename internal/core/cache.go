package core

// Cache integration: an attached store.Cache memoizes final verdicts
// keyed by (CFG structure, salt, model fingerprint), turning a repeat
// submission into a lookup that skips extraction and scoring. The key
// is the CFG's structural digest, never the raw bytes: the detector
// reads only the CFG, so byte-level edits that leave it unchanged
// (appended unreachable bytes or sections) share one entry. Two places
// speak the cache protocol: AnalyzeBatch (hit/miss partition;
// AnalyzeBinaryBatch and AnalyzeBinary disassemble, then call it) and
// Batcher.SubmitCtx (plus singleflight). Keys carry the model
// fingerprint, so a retrained or different model can never serve
// another model's results, and all cached decisions are bit-identical
// to the uncached path by construction — the cache stores outputs, it
// never changes how they are computed.

import (
	"crypto/sha256"
	"encoding/binary"

	"soteria/internal/disasm"
	"soteria/internal/malgen"
	"soteria/internal/store"
)

// AttachCache attaches (nil detaches) a result cache to the pipeline,
// pinning the current model fingerprint into every key it writes. Not
// safe to call concurrently with Analyze calls — attach before
// serving. Attaching fails only if the model cannot be serialized.
func (p *Pipeline) AttachCache(c *store.Cache) error {
	if c == nil {
		p.cache = nil
		return nil
	}
	fp, err := p.Fingerprint()
	if err != nil {
		return err
	}
	p.modelFP = fp
	p.cache = c
	return nil
}

// Cache returns the attached cache, nil when uncached.
func (p *Pipeline) Cache() *store.Cache { return p.cache }

// cfgKey keys an already-disassembled CFG by a canonical structural
// digest. Extraction depends only on the graph's node count, entry
// node, edge set, salt, and the (fingerprinted) extractor config —
// never on block contents — so two CFGs with identical structure are
// interchangeable inputs and may share cache entries. The
// "soteria/cfg/v1" prefix versions the digest and keeps it disjoint
// from the raw-byte keys that logs written before it may still hold.
func (p *Pipeline) cfgKey(c *disasm.CFG, salt int64) store.Key {
	h := sha256.New()
	var buf [16]byte
	copy(buf[:], "soteria/cfg/v1\x00\x00")
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:8], uint64(c.G.NumNodes()))
	binary.LittleEndian.PutUint64(buf[8:], uint64(c.EntryNode()))
	h.Write(buf[:])
	for _, e := range c.G.Edges() {
		binary.LittleEndian.PutUint64(buf[:8], uint64(e[0]))
		binary.LittleEndian.PutUint64(buf[8:], uint64(e[1]))
		h.Write(buf[:])
	}
	var k store.Key
	h.Sum(k.Content[:0])
	k.Salt = salt
	k.Model = p.modelFP
	return k
}

func verdictOf(d *Decision) store.Verdict {
	return store.Verdict{Adversarial: d.Adversarial, RE: d.RE, Class: int32(d.Class)}
}

func decisionOf(v store.Verdict) *Decision {
	return &Decision{Adversarial: v.Adversarial, RE: v.RE, Class: malgen.Class(v.Class)}
}
