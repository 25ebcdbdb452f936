// Package raw is the "act of desperation" baseline: direct access to
// the disk through the driver with no file system at all — "no file
// abstraction, no read ahead, no caching, in short, none of the features
// that are expected of a file system" — just the permission-check-level
// CPU cost and the user's own blocking.
package raw

import (
	"errors"

	"ufsclust/internal/cpu"
	"ufsclust/internal/disk"
	"ufsclust/internal/driver"
	"ufsclust/internal/sim"
)

// Device is an open raw disk.
type Device struct {
	Drv *driver.Driver
	CPU *cpu.Model // may be nil

	// SyscallInstr is charged per call: the syscall plus "a few
	// permission checks".
	SyscallInstr int64
	// CopyPerByte is the kernel<->user copy cost (raw I/O still
	// copies unless the driver maps user pages; we model the copy).
	CopyPerByte int64
}

// Open returns a raw device over the driver.
func Open(drv *driver.Driver, cpuModel *cpu.Model) *Device {
	return &Device{Drv: drv, CPU: cpuModel, SyscallInstr: 2500, CopyPerByte: 3}
}

func (d *Device) xfer(p *sim.Proc, off int64, buf []byte, write bool) (int, error) {
	if off%disk.SectorSize != 0 || len(buf)%disk.SectorSize != 0 {
		return 0, errors.New("raw: unaligned transfer")
	}
	if d.CPU != nil {
		d.CPU.Use(p, cpu.Syscall, d.SyscallInstr)
	}
	total := 0
	for len(buf) > 0 {
		n := len(buf)
		if mp := d.Drv.MaxPhys(); n > mp {
			n = mp
		}
		if d.CPU != nil {
			d.CPU.Use(p, cpu.Copy, d.CopyPerByte*int64(n))
		}
		d.Drv.IO(p, &driver.Buf{
			Blkno: off / disk.SectorSize,
			Data:  buf[:n],
			Write: write,
		})
		off += int64(n)
		buf = buf[n:]
		total += n
	}
	return total, nil
}

// ReadAt reads sector-aligned data synchronously.
func (d *Device) ReadAt(p *sim.Proc, off int64, buf []byte) (int, error) {
	return d.xfer(p, off, buf, false)
}

// WriteAt writes sector-aligned data synchronously.
func (d *Device) WriteAt(p *sim.Proc, off int64, buf []byte) (int, error) {
	return d.xfer(p, off, buf, true)
}
