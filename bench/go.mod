module github.com/hopper-sim/hopper/bench

go 1.22

require github.com/hopper-sim/hopper v0.0.0

replace github.com/hopper-sim/hopper => ../
