module github.com/chronus-sdn/chronus/bench

go 1.22

require github.com/chronus-sdn/chronus v0.0.0

replace github.com/chronus-sdn/chronus => ../
