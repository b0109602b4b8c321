// Package a seeds seqlock violations: broken version-counter brackets in
// writers and missing re-checks in readers.
package a

import "sync/atomic"

// publishing is the double-buffered shape of internal/register.Seqlock:
// slot stores first, one version increment to publish.
type publishing struct {
	version atomic.Uint64
	slots   [2][4]atomic.Uint64
}

func (r *publishing) writeGood(vals [4]uint64) { // clean
	v1 := r.version.Load()
	for i, v := range vals {
		r.slots[(v1+1)&1][i].Store(v)
	}
	if r.version.Add(1) != v1+1 {
		panic("concurrent writers")
	}
}

func (r *publishing) writeTorn(vals [4]uint64) {
	v1 := r.version.Load()
	r.version.Add(1)
	for i, v := range vals {
		r.slots[(v1+1)&1][i].Store(v) // want `stores into a slot after the version counter was published`
	}
}

func (r *publishing) readGood(port int) [4]uint64 { // clean
	for {
		v1 := r.version.Load()
		var out [4]uint64
		for i := range out {
			out[i] = r.slots[v1&1][i].Load()
		}
		if r.version.Load() == v1 {
			return out
		}
	}
}

func (r *publishing) readUnchecked() [4]uint64 { // want `copies the slots but never re-checks the version counter`
	v1 := r.version.Load()
	var out [4]uint64
	for i := range out {
		out[i] = r.slots[v1&1][i].Load()
	}
	return out
}

func (r *publishing) readEarlyCheck() [4]uint64 { // want `re-checks the version counter before the slot copy completes`
	v1 := r.version.Load()
	if r.version.Load() != v1 {
		return r.readEarlyCheck()
	}
	var out [4]uint64
	for i := range out {
		out[i] = r.slots[v1&1][i].Load()
	}
	return out
}

// classic is the traditional odd/even seqlock: the write sits between two
// increments.
type classic struct {
	seq  atomic.Uint64 //bloom:seqlock-version
	data [4]atomic.Uint64
}

func (c *classic) writeGood(vals [4]uint64) { // clean
	c.seq.Add(1)
	for i, v := range vals {
		c.data[i].Store(v)
	}
	c.seq.Add(1)
}

func (c *classic) writeOutsideBracket(vals [4]uint64) {
	c.data[0].Store(vals[0]) // want `stores into a slot before the version counter entered the write bracket`
	c.seq.Add(1)
	for i, v := range vals[1:] {
		c.data[i+1].Store(v)
	}
	c.seq.Add(1)
}

func (c *classic) writeUnpublished(vals [4]uint64) { // want `stores into the slots but never advances the version counter`
	for i, v := range vals {
		c.data[i].Store(v)
	}
}

// aliased mirrors internal/register.Seqlock: methods reach the slots
// through a local alias (slot := r.slots[...]), and bump an unrelated
// side counter the analyzer must not mistake for a slot store.
type aliased struct {
	version atomic.Uint64
	slots   [2][]atomic.Uint64
	hits    atomic.Int64
}

func (r *aliased) writeGood(vals []uint64) { // clean
	r.hits.Add(1)
	v1 := r.version.Load()
	slot := r.slots[(v1+1)&1]
	for i, v := range vals {
		slot[i].Store(v)
	}
	r.version.Add(1)
}

func (r *aliased) writeTornAlias(vals []uint64) {
	v1 := r.version.Load()
	slot := r.slots[(v1+1)&1]
	r.version.Add(1)
	for i, v := range vals {
		slot[i].Store(v) // want `stores into a slot after the version counter was published`
	}
}

func (r *aliased) readGood() uint64 { // clean: the hit counter is not a slot access
	r.hits.Add(1)
	for {
		v1 := r.version.Load()
		slot := r.slots[v1&1]
		v := slot[0].Load()
		if r.version.Load() == v1 {
			return v
		}
	}
}

// packed is the shape of internal/register.Seqlock: the version word
// followed directly by one word array holding slot 0 then slot 1, each
// slot word reached by an index expression, words[base+i].
type packed struct {
	version atomic.Uint64
	words   [8]atomic.Uint64 // slot 0, then slot 1
	nwords  int
}

func (r *packed) writeGood(vals [4]uint64) { // clean
	n := r.nwords
	v1 := r.version.Load()
	base := int((v1+1)&1) * n
	for i := 0; i < n; i++ {
		r.words[base+i].Store(vals[i])
	}
	if r.version.Add(1) != v1+1 {
		panic("concurrent writers")
	}
}

func (r *packed) writeLate(vals [4]uint64) {
	n := r.nwords
	v1 := r.version.Load()
	base := int((v1+1)&1) * n
	if r.version.Add(1) != v1+1 {
		panic("concurrent writers")
	}
	for i := 0; i < n; i++ {
		r.words[base+i].Store(vals[i]) // want `stores into a slot after the version counter was published`
	}
}

func (r *packed) readGood() [4]uint64 { // clean
	n := r.nwords
	for {
		v1 := r.version.Load()
		base := int(v1&1) * n
		var out [4]uint64
		for i := 0; i < n; i++ {
			out[i] = r.words[base+i].Load()
		}
		if r.version.Load() == v1 {
			return out
		}
	}
}

func (r *packed) readUnchecked() [4]uint64 { // want `copies the slots but never re-checks the version counter`
	n := r.nwords
	v1 := r.version.Load()
	base := int(v1&1) * n
	var out [4]uint64
	for i := 0; i < n; i++ {
		out[i] = r.words[base+i].Load()
	}
	return out
}

// readSinceGood is the shape of internal/register.Seqlock.ReadSince: an
// unchanged version hands back the caller's snapshot, and anything else
// copies and re-checks.
func (r *packed) readSinceGood(snap *[4]uint64, ver *uint64) [4]uint64 { // clean
	v1 := r.version.Load()
	if v1 == *ver {
		return *snap
	}
	n := r.nwords
	for {
		base := int(v1&1) * n
		var out [4]uint64
		for i := 0; i < n; i++ {
			out[i] = r.words[base+i].Load()
		}
		v2 := r.version.Load()
		if v2 == v1 {
			*snap, *ver = out, v1
			return out
		}
		v1 = v2
	}
}

// readSinceUnchecked compares the version with the snapshot's, but keeps
// and returns a copy it never re-checked.
func (r *packed) readSinceUnchecked(snap *[4]uint64, ver *uint64) [4]uint64 { // want `re-checks the version counter before the slot copy completes`
	v1 := r.version.Load()
	if v1 == *ver {
		return *snap
	}
	n := r.nwords
	base := int(v1&1) * n
	var out [4]uint64
	for i := 0; i < n; i++ {
		out[i] = r.words[base+i].Load()
	}
	*snap, *ver = out, v1
	return out
}

// notASeqlock has atomic words but no version counter; its methods are
// unconstrained.
type notASeqlock struct {
	totals [4]atomic.Uint64
}

func (n *notASeqlock) bump(i int) { n.totals[i].Add(1) }

func (n *notASeqlock) read(i int) uint64 { return n.totals[i].Load() }
