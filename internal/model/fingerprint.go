package model

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"slices"
	"sync"
)

// Fingerprint returns a SHA-256 over the model's structure: its name,
// every actor in declaration order (name, type, operator, subsystem,
// parameters sorted by name, input and output ports) and every connection
// in order. Two models with equal fingerprints elaborate, schedule and
// generate identically, so the fingerprint can stand in for the model in
// a memo key. It only reads the model, and its scratch state is pooled:
// in steady state it allocates nothing.
func (m *Model) Fingerprint() [32]byte {
	f := fingerprinters.Get().(*fingerprinter)
	defer fingerprinters.Put(f)
	f.h.Reset()
	f.n = 0
	f.str(m.Name)
	f.uint(uint64(len(m.Actors)))
	for _, a := range m.Actors {
		f.str(a.Name)
		f.str(string(a.Type))
		f.str(a.Operator)
		f.str(a.Subsystem)
		f.keys = f.keys[:0]
		for k := range a.Params {
			f.keys = append(f.keys, k)
		}
		slices.Sort(f.keys)
		f.uint(uint64(len(f.keys)))
		for _, k := range f.keys {
			f.str(k)
			f.str(a.Params[k])
		}
		f.ports(a.Inputs)
		f.ports(a.Outputs)
	}
	f.uint(uint64(len(m.Connections)))
	for _, c := range m.Connections {
		f.str(c.SrcActor)
		f.uint(uint64(c.SrcPort))
		f.str(c.DstActor)
		f.uint(uint64(c.DstPort))
	}
	f.flush()
	var out [32]byte
	copy(out[:], f.h.Sum(f.sum[:0]))
	return out
}

// fingerprinter streams length-prefixed fields through a buffer into a
// SHA-256 state; pooled so repeat fingerprints reuse the hash state, the
// buffer and the parameter-key scratch.
type fingerprinter struct {
	h    hash.Hash
	buf  [4096]byte
	n    int
	sum  [sha256.Size]byte
	keys []string
}

var fingerprinters = sync.Pool{New: func() any { return &fingerprinter{h: sha256.New()} }}

func (f *fingerprinter) flush() {
	f.h.Write(f.buf[:f.n])
	f.n = 0
}

func (f *fingerprinter) uint(v uint64) {
	if len(f.buf)-f.n < binary.MaxVarintLen64 {
		f.flush()
	}
	f.n += binary.PutUvarint(f.buf[f.n:], v)
}

func (f *fingerprinter) str(s string) {
	f.uint(uint64(len(s)))
	for len(s) > 0 {
		if f.n == len(f.buf) {
			f.flush()
		}
		c := copy(f.buf[f.n:], s)
		f.n += c
		s = s[c:]
	}
}

func (f *fingerprinter) ports(ps []Port) {
	f.uint(uint64(len(ps)))
	for _, p := range ps {
		f.str(p.Name)
		f.uint(uint64(p.Kind))
		f.uint(uint64(p.Width))
	}
}
