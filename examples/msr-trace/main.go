// Msr-trace drives one simulated module directly through its MSR
// interface, the way libmsr-based tooling does on real Ivy Bridge parts:
// decode the RAPL unit register, program a package power limit, watch the
// energy-status counter tick (including a 32-bit wraparound), and read the
// delivered frequency from IA32_PERF_STATUS.
//
// Run with:
//
//	go run ./examples/msr-trace
package main

import (
	"fmt"
	"log"

	"varpower/internal/cluster"
	"varpower/internal/hw/msr"
	"varpower/internal/workload"
)

func main() {
	sys, err := cluster.New(cluster.HA8K(), 1, 7)
	if err != nil {
		log.Fatal(err)
	}
	ctl := sys.RAPL(0)
	dev := ctl.Device()
	prof := workload.DGEMM().ProfileFor(sys.Spec.Arch)

	// Raw register reads, as /dev/cpu/0/msr_safe would serve them.
	unitRaw, err := dev.Read(msr.RaplPowerUnit)
	if err != nil {
		log.Fatal(err)
	}
	infoRaw, err := dev.Read(msr.PkgPowerInfo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MSR_RAPL_POWER_UNIT  (0x606) = %#012x\n", unitRaw)
	fmt.Printf("MSR_PKG_POWER_INFO   (0x614) = %#012x  (TDP %.1f W)\n",
		infoRaw, msr.DecodePowerUnits(infoRaw))

	// The whitelist protects everything msr-safe would.
	if _, err := dev.Read(0x10); err != nil {
		fmt.Printf("read of non-whitelisted 0x10 rejected: %v\n", err)
	}

	// Program a 65 W PL1 with the paper's 1 ms window and read it back.
	if err := ctl.SetPkgLimit(65, 0.001, nil); err != nil {
		log.Fatal(err)
	}
	limRaw, _ := dev.Read(msr.PkgPowerLimit)
	lim := msr.DecodePowerLimit(limRaw)
	fmt.Printf("MSR_PKG_POWER_LIMIT  (0x610) = %#012x  (%.1f W over %.4f s, enabled=%v)\n",
		limRaw, lim.Watts, lim.Seconds, lim.Enabled)

	// Resolve the operating point under the cap and account ten seconds of
	// busy time; watch the energy counter move.
	op, ok := ctl.OperatingPoint(prof)
	if !ok {
		log.Fatal("cap infeasible")
	}
	fmt.Printf("\noperating point under 65 W: f=%v, Pcpu=%.1f W, Pdram=%.1f W\n",
		op.Freq, float64(op.CPUPower), float64(op.DramPower))

	perfRaw, _ := dev.Read(msr.IA32PerfStatus)
	fmt.Printf("IA32_PERF_STATUS     (0x198) = %#06x   (ratio %d ≈ %d00 MHz)\n",
		perfRaw, perfRaw>>8&0xFF, perfRaw>>8&0xFF)

	before, _ := dev.Read(msr.PkgEnergyStatus)
	ctl.AccountEnergy(prof, op, 10, 0)
	after, _ := dev.Read(msr.PkgEnergyStatus)
	fmt.Printf("\nPKG_ENERGY_STATUS    (0x611): %#010x -> %#010x  (Δ %.1f J over 10 s = %.1f W)\n",
		before, after, msr.EnergyDeltaJoules(before, after),
		msr.EnergyDeltaJoules(before, after)/10)

	// Push the 32-bit counter past a wrap (one wrap = 2^32 / 2^16 = 65536
	// J) and show why a single-shot delta read loses energy.
	consumed := 0.0
	before, _ = dev.Read(msr.PkgEnergyStatus)
	for i := 0; i < 700; i++ {
		ctl.AccountEnergy(prof, op, 2, 0)
		consumed += float64(op.CPUPower) * 2
	}
	after, _ = dev.Read(msr.PkgEnergyStatus)
	delta := msr.EnergyDeltaJoules(before, after)
	fmt.Printf("\nafter %.0f kJ more:    %#010x -> %#010x\n", consumed/1e3, before, after)
	fmt.Printf("single-shot delta reads %.0f J — the counter wrapped %d time(s), and each\n",
		delta, int((consumed-delta)/65536+0.5))
	fmt.Println("wrap silently drops 65536 J from a one-shot read. That is why RAPL meters")
	fmt.Println("poll the counter periodically; see internal/measure's 30-second polling loop.")
}
