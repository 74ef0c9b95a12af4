// Package ctlplane is the control-plane subsystem that lets multiple
// iprefetchd replicas serve one daemon fleet: a file-lease ownership
// protocol (TTL + fencing token) elects exactly one journal owner at a
// time and hands ownership over lazily when the owner dies, a Replica
// manager runs the renew/takeover loop and reports the current leader
// so followers can redirect writes, an SSE Broker fans out streaming
// job/sweep progress events with Last-Event-ID resume, and a
// token-bucket Limiter sheds abusive clients with 429 + Retry-After
// before they reach the job queue.
package ctlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/atomicfile"
)

// LeaseInfo is the persisted ownership record: who owns the journal
// root, the URL followers should redirect writes to, the fencing token
// (monotonic across ownership changes), and the expiry after which any
// replica may take over.
type LeaseInfo struct {
	Holder  string    `json:"holder"`
	URL     string    `json:"url,omitempty"`
	Token   uint64    `json:"token"`
	Expires time.Time `json:"expires"`
}

// Expired reports whether the lease is past its TTL at now.
func (l LeaseInfo) Expired(now time.Time) bool { return !now.Before(l.Expires) }

// FileLease is the on-disk lease protocol over a directory every
// replica shares (the journal root). Mutations serialise on a
// flock(2)-held guard file, so the read-check-write of a takeover is
// atomic across processes; a crashed holder's flock releases with its
// file descriptor, and its lease simply expires. The owner record
// itself is written via temp-file + rename, so readers never observe a
// torn lease.
type FileLease struct {
	dir string
}

// leaseFile and guardFile name the two files under the lease dir.
const (
	leaseFile = "owner.json"
	guardFile = "owner.lock"
)

// NewFileLease opens (creating if needed) the lease rooted at dir.
func NewFileLease(dir string) (*FileLease, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ctlplane: lease dir: %w", err)
	}
	return &FileLease{dir: dir}, nil
}

// Dir returns the lease's root directory.
func (fl *FileLease) Dir() string { return fl.dir }

// withGuard runs fn while holding the cross-process mutation lock.
func (fl *FileLease) withGuard(fn func() error) error {
	f, err := os.OpenFile(filepath.Join(fl.dir, guardFile), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		return fmt.Errorf("ctlplane: lease guard: %w", err)
	}
	defer syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	return fn()
}

// Read returns the current lease record without taking the guard
// (readers tolerate observing a record an instant before it renews).
// A missing lease file reads as (zero, false, nil).
func (fl *FileLease) Read() (LeaseInfo, bool, error) {
	data, err := os.ReadFile(filepath.Join(fl.dir, leaseFile))
	if errors.Is(err, os.ErrNotExist) {
		return LeaseInfo{}, false, nil
	}
	if err != nil {
		return LeaseInfo{}, false, err
	}
	var info LeaseInfo
	if err := json.Unmarshal(data, &info); err != nil {
		// A corrupt lease is treated as absent: the next acquire
		// rewrites it (fencing token restarts, which is safe — stale
		// owners observe holder != self and step down regardless).
		return LeaseInfo{}, false, nil
	}
	return info, true, nil
}

// writeLocked persists a lease record. Caller must hold the guard.
func (fl *FileLease) writeLocked(info LeaseInfo) error {
	data, err := json.Marshal(info)
	if err != nil {
		return err
	}
	return atomicfile.Write(filepath.Join(fl.dir, leaseFile), data)
}

// Acquire attempts to take or renew ownership for holder at now. It
// succeeds when the lease is free, expired, or already held by this
// holder (renewal); the fencing token increments on every change of
// holder, never on renewal. On failure the current owner's record is
// returned so the caller can redirect to it.
func (fl *FileLease) Acquire(holder, url string, ttl time.Duration, now time.Time) (LeaseInfo, bool, error) {
	var granted LeaseInfo
	var ok bool
	err := fl.withGuard(func() error {
		cur, exists, err := fl.Read()
		if err != nil {
			return err
		}
		if exists && cur.Holder != holder && !cur.Expired(now) {
			granted, ok = cur, false
			return nil
		}
		token := cur.Token
		if cur.Holder != holder {
			token++ // ownership change fences the previous holder
		}
		granted = LeaseInfo{Holder: holder, URL: url, Token: token, Expires: now.Add(ttl)}
		ok = true
		return fl.writeLocked(granted)
	})
	return granted, ok, err
}

// Fenced runs write under the mutation guard iff the lease record
// still names holder with token, and reports whether it ran. A takeover
// also runs under the guard, so a write that ran is ordered before any
// later owner's takeover, and one that did not would have come after
// it. Expiry alone does not fence: until a peer takes over, the last
// owner may still write.
func (fl *FileLease) Fenced(holder string, token uint64, write func() error) (bool, error) {
	var held bool
	err := fl.withGuard(func() error {
		cur, exists, err := fl.Read()
		if err != nil {
			return err
		}
		if held = exists && cur.Holder == holder && cur.Token == token; !held {
			return nil
		}
		return write()
	})
	return held, err
}

// Release frees the lease iff holder still owns it, letting a peer
// take over immediately instead of waiting out the TTL.
func (fl *FileLease) Release(holder string) error {
	return fl.withGuard(func() error {
		cur, exists, err := fl.Read()
		if err != nil || !exists || cur.Holder != holder {
			return err
		}
		return os.Remove(filepath.Join(fl.dir, leaseFile))
	})
}
