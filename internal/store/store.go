// Package store implements a sharded, concurrency-safe document store and
// the batch/parallel evaluation layer on top of it: one compiled query
// fanned out across a corpus of documents on a bounded worker pool
// (Store.Query), and a single large document data-partitioned across
// goroutines (EvaluateParallel). It is the multi-core serving substrate the
// ROADMAP's north star asks for; the data-partitioning strategy follows
// Sato et al., "Parallelization of XPath Queries using Modern XQuery
// Processors" (see PAPERS.md), transplanted onto the Gottlob/Koch/Pichler
// engines whose context-value tables partition naturally over disjoint
// context sets.
package store

import (
	"fmt"
	"hash/maphash"
	"sort"
	"sync"

	"repro/internal/xmltree"
)

// numShards fixes the shard count. 16 keeps lock contention negligible for
// tens of writer goroutines while costing only 16 small maps per store.
const numShards = 16

type shard struct {
	mu   sync.RWMutex
	docs map[string]*xmltree.Document
}

// Store is a sharded map from document IDs to immutable documents. All
// methods are safe for concurrent use; reads take only a per-shard RLock.
// The store never writes to a document: label sharing across the corpus is
// settled when each document is built (see xmltree's buildTopology).
type Store struct {
	seed   maphash.Seed
	shards [numShards]shard
}

// New returns an empty store.
func New() *Store {
	s := &Store{seed: maphash.MakeSeed()}
	for i := range s.shards {
		s.shards[i].docs = make(map[string]*xmltree.Document)
	}
	return s
}

func (s *Store) shardFor(id string) *shard {
	return &s.shards[maphash.String(s.seed, id)%numShards]
}

// maxIDLen bounds document IDs so every corpus snapshot stays loadable:
// the snapshot reader rejects implausible string lengths, and an ID
// accepted here must never trip that guard on the way back in.
const maxIDLen = 4096

// validateDoc checks the (id, doc) pair every insertion path shares.
func validateDoc(id string, doc *xmltree.Document) error {
	if id == "" {
		return fmt.Errorf("store: empty document ID")
	}
	if len(id) > maxIDLen {
		return fmt.Errorf("store: document ID length %d exceeds %d", len(id), maxIDLen)
	}
	if doc == nil {
		return fmt.Errorf("store: nil document for ID %q", id)
	}
	return nil
}

// Add inserts (or replaces) the document under the given ID. The document
// is only referenced, never modified, so it may be evaluated, and added to
// other stores, concurrently with the call.
func (s *Store) Add(id string, doc *xmltree.Document) error {
	_, err := s.Replace(id, doc)
	return err
}

// Replace atomically swaps the document under the ID (inserting if absent)
// and reports whether a previous document was displaced. Neither document
// is modified: readers holding the old one keep a fully valid tree.
func (s *Store) Replace(id string, doc *xmltree.Document) (bool, error) {
	if err := validateDoc(id, doc); err != nil {
		return false, err
	}
	sh := s.shardFor(id)
	sh.mu.Lock()
	_, replaced := sh.docs[id]
	sh.docs[id] = doc
	sh.mu.Unlock()
	return replaced, nil
}

// Get returns the document stored under the ID.
func (s *Store) Get(id string) (*xmltree.Document, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	doc, ok := sh.docs[id]
	sh.mu.RUnlock()
	return doc, ok
}

// Remove deletes the document stored under the ID, reporting whether it was
// present.
func (s *Store) Remove(id string) bool {
	sh := s.shardFor(id)
	sh.mu.Lock()
	_, ok := sh.docs[id]
	delete(sh.docs, id)
	sh.mu.Unlock()
	return ok
}

// Len returns the number of stored documents.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.docs)
		sh.mu.RUnlock()
	}
	return n
}

// IDs returns the IDs of all stored documents, sorted.
//
//xpathlint:deterministic
func (s *Store) IDs() []string {
	out := make([]string, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.docs {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// snapshot returns a point-in-time (id, doc) listing sorted by ID. Each
// shard is read under its RLock; the listing as a whole is not atomic
// across shards, which is fine for batch evaluation (a concurrent Add lands
// in either this batch or the next).
type entry struct {
	id  string
	doc *xmltree.Document
}

//xpathlint:deterministic
func (s *Store) snapshot() []entry {
	out := make([]entry, 0, s.Len())
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, doc := range sh.docs {
			out = append(out, entry{id, doc})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
