module betrfs/benchmark

go 1.22

require betrfs v0.0.0

replace betrfs => ../
