module dlsm/benchmarks/dlsm-perf

go 1.22

require dlsm v0.0.0

replace dlsm => ../../
