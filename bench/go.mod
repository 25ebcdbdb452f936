module ufsclust/bench

go 1.22

require ufsclust v0.0.0

replace ufsclust => ../
