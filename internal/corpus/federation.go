package corpus

// Federation: pull-by-hash replication of entries between daemons.
// A Fetcher resolves an entry id against a list of peer base URLs
// (the ctlplane replica list), pulling the manifest and then only the
// chunks the local CAS is missing — a near-duplicate of an existing
// entry transfers a fraction of its bytes. Everything is verified
// before adoption: each fetched chunk must decode and hash to its
// name, and the assembled recipe must recompute to the requested id,
// so a corrupt or malicious peer cannot poison the store. Adoption is
// idempotent; concurrent fetches of the same id converge on identical
// files.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Fetcher replicates corpus entries from peer daemons.
type Fetcher struct {
	Store *Store
	// Peers are base URLs ("http://host:port"); tried in order.
	Peers []string
	// Client defaults to an http.Client with a 30 s timeout.
	Client *http.Client
	// Logf, if set, narrates fetches (one line per entry and per
	// failed peer).
	Logf func(format string, args ...any)
}

func (f *Fetcher) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

func (f *Fetcher) client() *http.Client {
	if f.Client != nil {
		return f.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// Fetch makes the store hold id, pulling missing chunks and the
// manifest from the first peer that can serve them. A nil error
// means Store.Has(id) is now true.
func (f *Fetcher) Fetch(ctx context.Context, id string) error {
	if !validID(id) {
		return fmt.Errorf("corpus: invalid id %q", id)
	}
	if f.Store.Has(id) {
		return nil
	}
	if len(f.Peers) == 0 {
		return fmt.Errorf("corpus: %s: not local and no federation peers configured", id)
	}
	var lastErr error
	for _, peer := range f.Peers {
		if err := f.fetchFrom(ctx, peer, id); err != nil {
			f.logf("corpus: fetch %s from %s: %v", id[:12], peer, err)
			lastErr = err
			continue
		}
		return nil
	}
	return fmt.Errorf("corpus: %s: no peer could serve it: %w", id, lastErr)
}

func (f *Fetcher) fetchFrom(ctx context.Context, peer, id string) error {
	base := strings.TrimRight(peer, "/")
	var man Manifest
	if err := f.getJSON(ctx, base+"/v1/corpus/"+id+"/manifest", &man); err != nil {
		return err
	}
	if man.ID != id {
		return fmt.Errorf("peer returned manifest for %s", man.ID)
	}
	hashes := make([]string, len(man.Recipe))
	for i, ref := range man.Recipe {
		if !validID(ref.Hash) {
			return fmt.Errorf("manifest recipe has invalid chunk hash %q", ref.Hash)
		}
		hashes[i] = ref.Hash
	}
	// As for an ingest, the recipe's chunks are GC roots until the
	// manifest lands.
	s := f.Store
	s.addPending(hashes)
	defer s.removePending(hashes)
	fetched, reused := 0, 0
	for _, ref := range man.Recipe {
		if s.hasChunk(ref.Hash) {
			reused++
			continue
		}
		file, err := f.getBytes(ctx, base+"/v1/corpus/"+id+"/chunks/"+ref.Hash)
		if err != nil {
			return err
		}
		// Decode + hash-check before the chunk may enter the CAS.
		if _, err := decodeChunkFile(ref.Hash, file, true); err != nil {
			return err
		}
		if err := s.writeChunkFile(ref.Hash, file); err != nil {
			return err
		}
		fetched++
	}
	if err := s.AdoptManifest(man); err != nil {
		return err
	}
	f.logf("corpus: fetched %s from %s (%d chunks pulled, %d already local)",
		id[:12], peer, fetched, reused)
	return nil
}

func (f *Fetcher) getBytes(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	return io.ReadAll(resp.Body)
}

func (f *Fetcher) getJSON(ctx context.Context, url string, v any) error {
	data, err := f.getBytes(ctx, url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// AdoptManifest installs a manifest whose chunks are already in the
// CAS, after recomputing the entry from those chunks and checking
// every content-derived field against the claim. Adopting an entry
// the store already holds is a no-op.
func (s *Store) AdoptManifest(man Manifest) error {
	if !validID(man.ID) {
		return fmt.Errorf("corpus: invalid id %q", man.ID)
	}
	if s.Has(man.ID) {
		return nil
	}
	got, err := s.recompute(man)
	if err != nil {
		return err
	}
	if got.ID != man.ID {
		return fmt.Errorf("corpus: manifest claims %s but chunks hash to %s", man.ID, got.ID)
	}
	if !equalContent(got, man) {
		return fmt.Errorf("corpus: %s: manifest disagrees with fetched chunks", man.ID)
	}
	man.Source = "federate"
	man.CreatedAt = time.Now().UTC()
	// Replication does not re-measure dedup against this store.
	man.Dedup = DedupStats{}
	man.StoredBytes = 0
	if err := s.writeManifest(man); err != nil {
		return err
	}
	s.indexAdd(man)
	return nil
}
