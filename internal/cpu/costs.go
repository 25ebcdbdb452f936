package cpu

// MIPS is the processor rating of the paper's machine, a SPARCstation 1.
const MIPS = 12

// The instruction-cost table: every instruction count the simulated
// kernel charges, in one place. Calibrated so that, on the 12-MIPS
// machine, the legacy engine reproduces the paper's intro claim ("about
// half of a 12MIPS CPU ... half of the bandwidth of a 1.5MB/second
// disk") and the mmap comparison of Figure 12 keeps the paper's shape;
// the gated numbers are the paper cells of BENCH_iobench.json. Each
// comment names the category the count is charged to.
const (
	// The read/write path (internal/core).
	SyscallInstr     = 3000 // Syscall: read/write entry (uio setup, vnode dispatch)
	MapBlockInstr    = 2000 // MapUnmap: map and unmap one block of the kernel window
	FaultInstr       = 7000 // Fault: page fault handling (as_fault through segmap)
	GetPageInstr     = 5000 // GetPage: ufs_getpage body, excluding bmap
	PutPageInstr     = 3500 // PutPage: ufs_putpage body
	PageLookupInstr  = 400  // PageCache: page cache hash lookup or insert
	CopyInstrPerByte = 3    // Copy: kernel<->user copy
	ZeroInstrPerByte = 1    // Copy: page zero-fill for holes

	// The file system (internal/ufs). A bmap served by the Further Work
	// bmap cache costs BmapInstr/8, a fragment extension AllocInstr/2.
	BmapInstr  = 1100 // Bmap: one logical-to-physical translation
	AllocInstr = 1800 // Alloc: one allocator call

	// The device and memory layers (internal/driver, internal/vm).
	StrategyInstr  = 1500 // Driver: one Strategy call (queue insert + disksort)
	InterruptInstr = 2500 // Interrupt: one completion interrupt
	ScanInstr      = 120  // PageDaemon: one page examined by the clock

	// The comparison baselines (internal/raw, internal/extfs). Their
	// copies, and extfs's syscall entry, cost what the UFS engine's do.
	RawSyscallInstr = 2500 // Syscall: raw-device entry plus "a few permission checks"
	ExtentIOInstr   = 9000 // GetPage: one extent I/O, fault+getpage equivalent
)
