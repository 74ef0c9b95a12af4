package ctlplane

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// ReplicaConfig shapes one replica's participation in the ownership
// protocol. Zero values take the stated defaults.
type ReplicaConfig struct {
	// ID uniquely names this replica in the lease record. Default
	// "<hostname>-<pid>".
	ID string
	// URL is the address peers redirect writes to while this replica
	// owns the lease (e.g. "http://host:8080").
	URL string
	// Dir is the shared lease directory (typically <data>/ctlplane).
	// Required.
	Dir string
	// TTL is the lease lifetime; the renew loop runs at TTL/3, and a
	// dead owner is replaced within one TTL. Default 15s.
	TTL time.Duration
	// OnAcquire runs (on the replica goroutine) each time this replica
	// becomes the owner, with the fencing token it was granted.
	OnAcquire func(token uint64)
	// OnLose runs each time ownership is lost (expiry observed, lease
	// stolen, or filesystem failure).
	OnLose func()
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Replica runs the lease acquire/renew loop for one process. It is the
// liveness half of the protocol: FileLease decides who owns, Replica
// keeps trying and reports the answer.
type Replica struct {
	cfg   ReplicaConfig
	lease *FileLease

	mu       sync.Mutex
	isLeader bool
	token    uint64
	stopped  bool

	stopc chan struct{}
	donec chan struct{}
}

// StartReplica joins the ownership protocol and returns immediately;
// the background loop tries to acquire at once and then every TTL/3.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ctlplane: replica needs a lease dir")
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 15 * time.Second
	}
	fl, err := NewFileLease(cfg.Dir)
	if err != nil {
		return nil, err
	}
	r := &Replica{
		cfg:   cfg,
		lease: fl,
		stopc: make(chan struct{}),
		donec: make(chan struct{}),
	}
	go r.loop()
	return r, nil
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// ID returns this replica's identity in the lease record.
func (r *Replica) ID() string { return r.cfg.ID }

// TTL returns the configured lease lifetime.
func (r *Replica) TTL() time.Duration { return r.cfg.TTL }

// IsLeader reports whether this replica currently owns the lease.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.isLeader
}

// Token returns the fencing token of the current (or last) ownership.
func (r *Replica) Token() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.token
}

// Fence runs write iff the shared lease record still holds this
// replica's current (or last) ownership, and reports whether it ran;
// see FileLease.Fenced.
func (r *Replica) Fence(write func() error) (bool, error) {
	return r.lease.Fenced(r.cfg.ID, r.Token(), write)
}

// Leader reads the current owner's record off the shared lease file,
// whether or not that owner is this replica. ok is false when no
// unexpired lease exists.
func (r *Replica) Leader() (LeaseInfo, bool) {
	info, exists, err := r.lease.Read()
	if err != nil || !exists || info.Expired(time.Now()) {
		return LeaseInfo{}, false
	}
	return info, true
}

// loop acquires/renews until Stop or Abandon.
func (r *Replica) loop() {
	defer close(r.donec)
	interval := r.cfg.TTL / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		r.tick()
		select {
		case <-r.stopc:
			return
		case <-t.C:
		}
	}
}

// tick runs one acquire-or-renew attempt and fires transitions.
func (r *Replica) tick() {
	info, ok, err := r.lease.Acquire(r.cfg.ID, r.cfg.URL, r.cfg.TTL, time.Now())
	r.mu.Lock()
	was := r.isLeader
	r.isLeader = err == nil && ok
	if r.isLeader {
		r.token = info.Token
	}
	now := r.isLeader
	token := r.token
	r.mu.Unlock()

	switch {
	case now && !was:
		r.logf("ctlplane: %s acquired lease (token %d)", r.cfg.ID, token)
		if r.cfg.OnAcquire != nil {
			r.cfg.OnAcquire(token)
		}
	case !now && was:
		if err != nil {
			r.logf("ctlplane: %s lost lease: %v", r.cfg.ID, err)
		} else {
			r.logf("ctlplane: %s lost lease to %s", r.cfg.ID, info.Holder)
		}
		if r.cfg.OnLose != nil {
			r.cfg.OnLose()
		}
	}
}

// Abandon stops the renew loop without releasing the lease file —
// exactly what a crashed owner looks like to its peers. Tests use it
// to exercise TTL-expiry takeover; Stop after Abandon is a no-op.
func (r *Replica) Abandon() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	r.isLeader = false
	r.mu.Unlock()
	close(r.stopc)
	<-r.donec
}

// Stop leaves the protocol. With release true and ownership held, the
// lease file is removed so a peer takes over immediately instead of
// waiting out the TTL.
func (r *Replica) Stop(release bool) {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	was := r.isLeader
	r.isLeader = false
	r.mu.Unlock()
	close(r.stopc)
	<-r.donec
	if release && was {
		if err := r.lease.Release(r.cfg.ID); err != nil {
			r.logf("ctlplane: %s release: %v", r.cfg.ID, err)
		} else {
			r.logf("ctlplane: %s released lease", r.cfg.ID)
		}
	}
}
