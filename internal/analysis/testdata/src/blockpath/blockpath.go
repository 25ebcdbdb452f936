// Package fixture exercises the blockpath rule: callbacks that run in
// scheduler context (After timers, completion hooks) and calls made
// while a buffer is held must not reach the kernel's blocking
// primitives; pure callbacks and release-before-wait sequences pass.
package fixture

import (
	"ufsclust/internal/disk"
	"ufsclust/internal/sim"
	"ufsclust/internal/ufs"
)

// mayBlock parks the process; anything reaching it transitively may
// block, which the fixed point must discover through this indirection.
func mayBlock(p *sim.Proc, q *sim.WaitQ) {
	p.Block(q)
}

func badTimer(s *sim.Sim, p *sim.Proc, q *sim.WaitQ) {
	s.After(sim.Millisecond, func() { mayBlock(p, q) })
}

func badCompletion(p *sim.Proc, q *sim.WaitQ) *disk.Request {
	return &disk.Request{Done: func() { mayBlock(p, q) }}
}

func goodTimer(s *sim.Sim, n *int) {
	s.After(sim.Millisecond, func() { *n++ })
}

func badHold(p *sim.Proc, bc *ufs.Bcache, q *sim.WaitQ) error {
	b, err := bc.Bread(p, 7)
	if err != nil {
		return err
	}
	mayBlock(p, q) // waits on something unrelated while b is locked
	bc.Brelse(b)
	return nil
}

func goodHold(p *sim.Proc, bc *ufs.Bcache, q *sim.WaitQ) error {
	b, err := bc.Bread(p, 7)
	if err != nil {
		return err
	}
	bc.Brelse(b) // released first: the region is closed before the wait
	mayBlock(p, q)
	return nil
}

func suppressedHold(p *sim.Proc, bc *ufs.Bcache, q *sim.WaitQ) error {
	b, err := bc.Bread(p, 9)
	if err != nil {
		return err
	}
	// simlint:ignore blockpath -- audited: waiting for this buffer's own I/O
	mayBlock(p, q)
	bc.Brelse(b)
	return nil
}

func earlyReturnHold(p *sim.Proc, bc *ufs.Bcache, q *sim.WaitQ, done bool) error {
	b, err := bc.Bread(p, 7)
	if err != nil {
		return err
	}
	if done {
		bc.Brelse(b) // releases only on the early exit
		mayBlock(p, q)
		return nil
	}
	mayBlock(p, q) // b is still locked on this path
	bc.Brelse(b)
	return nil
}

func oneBranchRelease(p *sim.Proc, bc *ufs.Bcache, q *sim.WaitQ, dirty bool) error {
	b, err := bc.Bread(p, 7)
	if err != nil {
		return err
	}
	if dirty {
		bc.Bdwrite(b)
	}
	mayBlock(p, q) // b is still locked when it was clean
	return nil
}

func everyBranchReleases(p *sim.Proc, bc *ufs.Bcache, q *sim.WaitQ, dirty, sync bool) error {
	b, err := bc.Bread(p, 7)
	if err != nil {
		return err
	}
	if dirty {
		bc.Bdwrite(b)
	} else if sync {
		_ = bc.Bwrite(p, b)
	} else {
		bc.Brelse(b)
	}
	mayBlock(p, q)
	return nil
}
