// Package msr emulates the Machine Specific Register interface that the
// paper's power management stack is built on (Section 3.1.1: RAPL is
// programmed through MSRs via the libMSR library, with access mediated by
// the msr-safe whitelist).
//
// The emulation is register-accurate for the RAPL-relevant MSRs of the
// Intel SDM: fixed-point unit encodings from MSR_RAPL_POWER_UNIT, the
// PKG/DRAM power-limit bitfields, and 32-bit wrapping energy-status
// counters. Higher layers (internal/hw/rapl) speak to modules exclusively
// through Read/Write on this device, the same way libmsr speaks to
// /dev/cpu/*/msr_safe.
package msr

import (
	"fmt"
	"math"
	"sync"
)

// Register addresses (Intel SDM vol. 4).
const (
	IA32PerfStatus    = 0x198 // current P-state ratio in bits 15:8
	IA32PerfCtl       = 0x199 // requested P-state ratio in bits 15:8
	TurboRatioLimit   = 0x1AD // max turbo ratio in bits 7:0
	RaplPowerUnit     = 0x606 // power/energy/time unit divisors
	PkgPowerLimit     = 0x610 // PL1/PL2 limits
	PkgEnergyStatus   = 0x611 // 32-bit wrapping energy counter
	PkgPowerInfo      = 0x614 // TDP and min/max power
	DramPowerLimit    = 0x618
	DramEnergyStatus  = 0x619
	PkgPerfStatus     = 0x613 // accumulated throttled time
	DramPerfStatus    = 0x61B
	PlatformPowerInfo = 0x65C
)

// Unit divisor exponents reported by MSR_RAPL_POWER_UNIT on Sandy Bridge
// and later parts: power in 1/8 W, energy in 15.3 µJ, time in 976 µs.
const (
	powerUnitExp  = 3  // 1/2^3 W
	energyUnitExp = 16 // 1/2^16 J
	timeUnitExp   = 10 // 1/2^10 s
)

// Errors mirroring the msr-safe driver's failure modes.
var (
	ErrNotWhitelisted = fmt.Errorf("msr: register not in whitelist")
	ErrReadOnly       = fmt.Errorf("msr: register is read-only")
	// ErrIntercepted refuses a combined energy read on a device whose
	// reads go through a fault interceptor (see AccumulateEnergyRead).
	ErrIntercepted = fmt.Errorf("msr: energy reads are intercepted")
)

// access describes the whitelist entry for one register.
type access struct {
	readable bool
	writable bool
}

// Register storage is a fixed array rather than a map: Read/Write and
// AccumulateEnergy sit on the simulation's per-poll hot path, and map
// lookups on the register address were ~10% of simulation CPU at fleet
// scale. regIndex is the address decoder; -1 plays the role of a missing
// whitelist entry.
const (
	regPerfStatus = iota
	regPerfCtl
	regTurboRatio
	regPowerUnit
	regPkgLimit
	regPkgEnergy
	regPkgInfo
	regDramLimit
	regDramEnergy
	regPkgPerf
	regDramPerf
	regPlatformInfo
	nRegs
)

// regIndex maps a whitelisted register address to its storage slot.
func regIndex(addr uint64) int {
	switch addr {
	case IA32PerfStatus:
		return regPerfStatus
	case IA32PerfCtl:
		return regPerfCtl
	case TurboRatioLimit:
		return regTurboRatio
	case RaplPowerUnit:
		return regPowerUnit
	case PkgPowerLimit:
		return regPkgLimit
	case PkgEnergyStatus:
		return regPkgEnergy
	case PkgPowerInfo:
		return regPkgInfo
	case DramPowerLimit:
		return regDramLimit
	case DramEnergyStatus:
		return regDramEnergy
	case PkgPerfStatus:
		return regPkgPerf
	case DramPerfStatus:
		return regDramPerf
	case PlatformPowerInfo:
		return regPlatformInfo
	default:
		return -1
	}
}

// whitelist mirrors the msr-safe configuration the paper's experiments
// depended on (Shoga, Rountree & Schulz, "Whitelisting MSRs with
// msr-safe"), indexed by register slot.
var whitelist = [nRegs]access{
	regPerfStatus:   {readable: true},
	regPerfCtl:      {readable: true, writable: true},
	regTurboRatio:   {readable: true, writable: true},
	regPowerUnit:    {readable: true},
	regPkgLimit:     {readable: true, writable: true},
	regPkgEnergy:    {readable: true},
	regPkgInfo:      {readable: true},
	regDramLimit:    {readable: true, writable: true},
	regDramEnergy:   {readable: true},
	regPkgPerf:      {readable: true},
	regDramPerf:     {readable: true},
	regPlatformInfo: {readable: true},
}

// ReadInterceptor perturbs what software observes when it reads an
// energy-status register — the fault-injection hook (internal/faults
// satisfies it structurally, keeping this package dependency-free).
//
// addr is the register, t the device's current poll time on the run's
// virtual clock, raw the true register value, and last the value the
// previous read of this register *returned* (hasLast false on the first
// read — last-returned tracking is what lets a stuck-counter fault repeat
// itself). The interceptor returns the observed value or an error
// (emulating msr-safe's EIO); the register underneath is never changed.
type ReadInterceptor interface {
	InterceptRead(addr uint64, t float64, raw, last uint64, hasLast bool) (uint64, error)
}

// Device is one socket's MSR file. It is safe for concurrent use — the
// simulated "OS" may read energy counters while a controller thread writes
// power limits, exactly as on real hardware.
type Device struct {
	mu       sync.Mutex
	regs     [nRegs]uint64
	tdpWatts float64

	// Raw fractional energy that has not yet been committed to the 32-bit
	// counters, so that accumulating many tiny quanta does not lose energy
	// to truncation.
	pkgEnergyFrac  float64
	dramEnergyFrac float64

	// Fault interception (nil = faithful reads, the exact pre-fault path).
	icept    ReadInterceptor
	pollTime float64
	lastRet  [nRegs]uint64
	hasLast  [nRegs]bool
}

// NewDevice returns a device with the unit register and power-info
// registers initialised for the given package TDP (watts).
func NewDevice(tdpWatts float64) *Device {
	d := &Device{}
	d.Init(tdpWatts)
	return d
}

// Init (re)initialises the device in place to its power-on state for the
// given package TDP. Every field is written, so a device reset through Init
// is bit-identical to a freshly constructed one — the invariant pooled
// replica reuse (internal/cluster System.Reset) depends on. Init must not
// race with concurrent Read/Write; callers reset only between runs.
func (d *Device) Init(tdpWatts float64) {
	d.regs = [nRegs]uint64{}
	d.regs[regPowerUnit] = uint64(powerUnitExp) | uint64(energyUnitExp)<<8 | uint64(timeUnitExp)<<16
	d.regs[regPkgInfo] = EncodePowerUnits(tdpWatts)
	d.tdpWatts = tdpWatts
	d.pkgEnergyFrac = 0
	d.dramEnergyFrac = 0
	d.icept = nil
	d.pollTime = 0
	d.lastRet = [nRegs]uint64{}
	d.hasLast = [nRegs]bool{}
}

// TDPWatts returns the package TDP the device was initialised with.
func (d *Device) TDPWatts() float64 { return d.tdpWatts }

// SetReadInterceptor attaches (or, with nil, detaches) the fault-injection
// read hook. Interception covers only the energy-status registers — the
// observed side of power telemetry — and cannot touch register state.
func (d *Device) SetReadInterceptor(i ReadInterceptor) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.icept = i
	d.lastRet = [nRegs]uint64{}
	d.hasLast = [nRegs]bool{}
}

// SetPollTime stamps the run's virtual clock onto subsequent reads so a
// time-windowed sensor fault knows whether it is open. Energy accounting
// advances no global clock of its own; the poll loop (internal/measure)
// drives this.
func (d *Device) SetPollTime(t float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pollTime = t
}

// Read returns the value of the register at addr, enforcing the whitelist.
func (d *Device) Read(addr uint64) (uint64, error) {
	i := regIndex(addr)
	if i < 0 || !whitelist[i].readable {
		return 0, fmt.Errorf("%w: %#x", ErrNotWhitelisted, addr)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	val := d.regs[i]
	if d.icept != nil && (addr == PkgEnergyStatus || addr == DramEnergyStatus) {
		v, err := d.icept.InterceptRead(addr, d.pollTime, val, d.lastRet[i], d.hasLast[i])
		if err != nil {
			return 0, err
		}
		d.lastRet[i] = v
		d.hasLast[i] = true
		return v, nil
	}
	return val, nil
}

// Write stores val into the register at addr, enforcing the whitelist's
// write permissions.
func (d *Device) Write(addr, val uint64) error {
	i := regIndex(addr)
	if i < 0 {
		return fmt.Errorf("%w: %#x", ErrNotWhitelisted, addr)
	}
	if !whitelist[i].writable {
		return fmt.Errorf("%w: %#x", ErrReadOnly, addr)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.regs[i] = val
	return nil
}

// AccumulateEnergy adds pkg and dram joules to the wrapping energy-status
// counters. The simulation's run loop calls this as virtual time advances;
// software observes it exactly as it would observe the hardware counters.
func (d *Device) AccumulateEnergy(pkgJoules, dramJoules float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.accumulate(pkgJoules, dramJoules)
}

// AccumulateEnergyRead is AccumulateEnergy followed by ReadEnergy, under
// one hold of the device lock.
func (d *Device) AccumulateEnergyRead(pkgJoules, dramJoules float64) (pkg, dram uint64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.icept != nil {
		return 0, 0, ErrIntercepted
	}
	d.accumulate(pkgJoules, dramJoules)
	return d.regs[regPkgEnergy], d.regs[regDramEnergy], nil
}

// ReadEnergy is a Read of each energy-status register under one hold of
// the device lock. A device with a read interceptor refuses with
// ErrIntercepted and is left untouched: each intercepted read is a poll of
// its own, at its own poll time.
func (d *Device) ReadEnergy() (pkg, dram uint64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.icept != nil {
		return 0, 0, ErrIntercepted
	}
	return d.regs[regPkgEnergy], d.regs[regDramEnergy], nil
}

// accumulate is AccumulateEnergy with the lock held.
func (d *Device) accumulate(pkgJoules, dramJoules float64) {
	d.pkgEnergyFrac += pkgJoules * (1 << energyUnitExp)
	d.dramEnergyFrac += dramJoules * (1 << energyUnitExp)
	commit := func(frac *float64, reg int) {
		if *frac < 1 {
			return
		}
		units := uint64(*frac)
		*frac -= float64(units)
		d.regs[reg] = (d.regs[reg] + units) & 0xFFFFFFFF
	}
	commit(&d.pkgEnergyFrac, regPkgEnergy)
	commit(&d.dramEnergyFrac, regDramEnergy)
}

// SetPerfStatus records the currently delivered core ratio (frequency in
// units of 100 MHz) into IA32_PERF_STATUS, bypassing the whitelist the way
// hardware does.
func (d *Device) SetPerfStatus(ratio uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.regs[regPerfStatus] = (ratio & 0xFF) << 8
}

// --- Bitfield codecs -------------------------------------------------------

// EnergyCounterToJoules converts a raw energy-status register value into
// joules using the device's unit register.
func EnergyCounterToJoules(raw uint64) float64 {
	return float64(raw&0xFFFFFFFF) / (1 << energyUnitExp)
}

// EnergyDeltaJoules converts two successive raw counter reads into the
// joules elapsed between them, handling a single 32-bit wraparound. Gaps
// longer than one counter period alias (the counter wraps every 65,536 J);
// the rapl controller's 64-bit extended counters (ExtendedDeltaJoules)
// remove that limit.
func EnergyDeltaJoules(before, after uint64) float64 {
	delta := (after - before) & 0xFFFFFFFF
	return float64(delta) / (1 << energyUnitExp)
}

// ExtendedDeltaJoules converts two 64-bit extended counter values into
// joules, with no wrap to handle.
func ExtendedDeltaJoules(before, after uint64) float64 {
	return float64(after-before) / (1 << energyUnitExp)
}

// EncodePowerUnits converts watts to raw 1/2^powerUnitExp-watt units
// (bits 14:0 of the limit and info registers).
func EncodePowerUnits(watts float64) uint64 {
	if watts < 0 {
		watts = 0
	}
	u := uint64(watts*(1<<powerUnitExp) + 0.5)
	if u > 0x7FFF {
		u = 0x7FFF
	}
	return u
}

// DecodePowerUnits converts raw power units back to watts.
func DecodePowerUnits(raw uint64) float64 {
	return float64(raw&0x7FFF) / (1 << powerUnitExp)
}

// PowerLimit is the decoded form of a PKG/DRAM power-limit register's PL1
// window (the only window the paper uses).
type PowerLimit struct {
	Watts   float64
	Seconds float64 // averaging time window
	Enabled bool
	Clamp   bool
}

// EncodePowerLimit packs a PowerLimit into the PL1 fields of the raw
// register (bits 14:0 power, 15 enable, 16 clamp, 23:17 time window in
// Y/Z float format).
func EncodePowerLimit(l PowerLimit) uint64 {
	raw := EncodePowerUnits(l.Watts)
	if l.Enabled {
		raw |= 1 << 15
	}
	if l.Clamp {
		raw |= 1 << 16
	}
	raw |= encodeTimeWindow(l.Seconds) << 17
	return raw
}

// DecodePowerLimit unpacks the PL1 fields of a raw limit register.
func DecodePowerLimit(raw uint64) PowerLimit {
	return PowerLimit{
		Watts:   DecodePowerUnits(raw),
		Enabled: raw&(1<<15) != 0,
		Clamp:   raw&(1<<16) != 0,
		Seconds: decodeTimeWindow(raw >> 17 & 0x7F),
	}
}

// Time windows use the SDM's (1 + Z/4) · 2^Y format in time units, with Y
// in bits 4:0 and Z in bits 6:5 of the 7-bit field. A window encodes as the
// nearest of the 128 candidates, the first (smallest) of equally near ones;
// a window at or above the largest candidate, 1.75 · 2^31 units (~42
// days), encodes as that candidate. Candidate i = 4Y + Z rises with i, so
// for a target in [2^Y, 2^(Y+1)) only row Y and the first candidate of row
// Y+1 can be nearest; the encoder compares those five instead of scanning
// all 128.
func encodeTimeWindow(seconds float64) uint64 {
	if !(seconds > 0) { // ≤ 0 or NaN
		return 0
	}
	target := seconds * (1 << timeUnitExp)
	if target >= maxWindow {
		return windowCode(127)
	}
	// Below one unit every candidate is above the target and row 0's first
	// is nearest.
	_, exp := math.Frexp(target)
	y := max(exp-1, 0) // ⌊log₂ target⌋, now ≤ 31
	return nearestWindow(target, 4*y, min(4*y+4, 127))
}

// maxWindow is the largest window candidate, 1.75 · 2^31 time units.
const maxWindow = 1.75 * (1 << 31)

// nearestWindow returns the code of the candidate in [lo, hi] nearest
// target, the first on ties.
func nearestWindow(target float64, lo, hi int) uint64 {
	best, bestErr := lo, windowErr(lo, target)
	for i := lo + 1; i <= hi; i++ {
		if err := windowErr(i, target); err < bestErr {
			best, bestErr = i, err
		}
	}
	return windowCode(best)
}

// windowErr is |candidate i − target| in time units.
func windowErr(i int, target float64) float64 {
	v := (1 + float64(i%4)/4) * float64(uint64(1)<<(i/4))
	return math.Abs(v - target)
}

// windowCode packs candidate i = 4Y + Z into the 7-bit field.
func windowCode(i int) uint64 { return uint64(i/4) | uint64(i%4)<<5 }

func decodeTimeWindow(field uint64) float64 {
	y := field & 0x1F
	z := field >> 5 & 0x3
	return (1 + float64(z)/4) * float64(uint64(1)<<y) / (1 << timeUnitExp)
}
