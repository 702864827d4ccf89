package shm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/countq"
)

// ShardedCounter shards the count space by session: each session leases a
// block of counts from the global high-water mark with one fetch-and-add
// and hands them out privately, so the hot global word is touched only
// once per batch instead of once per operation, and the uncontended fast
// path is a plain increment.
//
// Distinctness is unconditional. The no-gaps property holds once every
// session is closed: Close surrenders the unused lease remainder to a
// shared free pool (where the next refill, by any session, reissues it),
// and Drain empties that pool, returning every leased-but-unused count so
// that handed-out ∪ drained = 1..max exactly. Like the counting network,
// the counter is quiescently consistent rather than linearizable: two
// sessions may hold blocks from different eras, so a later operation can
// return a smaller count than an earlier completed one.
type ShardedCounter struct {
	next   atomic.Int64 // high-water mark of leased counts
	batch  int64
	poolMu sync.Mutex
	free   []countRange // surrendered, not-yet-reissued leases
}

// countRange is the half-open interval of counts [lo, hi).
type countRange struct{ lo, hi int64 }

// NewShardedCounter builds a sharded counter with the given lease batch
// size (0 means the default, 64).
func NewShardedCounter(batch int64) (*ShardedCounter, error) {
	if batch == 0 {
		batch = 64
	}
	if batch < 1 {
		return nil, fmt.Errorf("shm: sharded counter batch %d < 1", batch)
	}
	return &ShardedCounter{batch: batch}, nil
}

// NewSession implements countq.Structure: the session holds the private
// lease.
func (c *ShardedCounter) NewSession() (countq.Session, error) {
	return &shardedSession{c: c}, nil
}

// lease obtains the next block of counts: a surrendered range when one is
// pooled, otherwise a fresh batch off the global high-water mark.
//
//countq:hotpath clocks=0
func (c *ShardedCounter) lease() (lo, hi int64) {
	c.poolMu.Lock()
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free = c.free[:n-1]
		c.poolMu.Unlock()
		return r.lo, r.hi
	}
	c.poolMu.Unlock()
	hi = c.next.Add(c.batch) + 1
	return hi - c.batch, hi
}

// Drain implements countq.Drainer: it empties the free pool and returns
// every surrendered-but-unused count. Called after every session is
// closed, the counts handed out so far plus the returned slice form
// exactly 1..max; drained counts are never reissued.
func (c *ShardedCounter) Drain() []int64 {
	c.poolMu.Lock()
	free := c.free
	c.free = nil
	c.poolMu.Unlock()
	var out []int64
	for _, r := range free {
		for v := r.lo; v < r.hi; v++ {
			out = append(out, v)
		}
	}
	return out
}

// shardedSession is one worker's lease. Owned by one goroutine.
type shardedSession struct {
	c      *ShardedCounter
	lo, hi int64 // private lease: counts [lo, hi) remain
}

// Inc implements countq.Session: the next count of the private lease,
// refilled from the shared structure once per batch.
//
//countq:hotpath clocks=0
func (s *shardedSession) Inc(ctx context.Context) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.lo == s.hi {
		s.lo, s.hi = s.c.lease()
	}
	v := s.lo
	s.lo++
	return v, nil
}

// IncN implements countq.BatchSession: it grants the n consecutive counts
// first..first+n-1 straight off the global high-water mark — one
// fetch-and-add for the whole block, bypassing the lease. The grant is
// the caller's to account for; it is never pooled or reissued, so
// handed-out singles ∪ granted blocks ∪ drained remainders still tile
// 1..max exactly.
//
//countq:hotpath clocks=0
func (s *shardedSession) IncN(ctx context.Context, n int64) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if n < 1 {
		return 0, fmt.Errorf("shm: sharded IncN(%d), want n ≥ 1", n)
	}
	return s.c.next.Add(n) - n + 1, nil
}

// Enqueue implements countq.Session; the sharded counter serves no queue
// operations.
func (s *shardedSession) Enqueue(ctx context.Context, id int64) (int64, error) {
	return 0, fmt.Errorf("shm: Enqueue on a sharded counter session: %w", countq.ErrUnsupported)
}

// Close implements countq.Session, surrendering the lease remainder to the
// free pool.
func (s *shardedSession) Close() error {
	if s.lo < s.hi {
		s.c.poolMu.Lock()
		s.c.free = append(s.c.free, countRange{s.lo, s.hi})
		s.c.poolMu.Unlock()
	}
	s.lo, s.hi = 0, 0
	return nil
}
