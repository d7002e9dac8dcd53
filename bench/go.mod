module anycastmap/bench

go 1.22

require anycastmap v0.0.0

replace anycastmap => ../
