module lifeguard/benchmark

go 1.22

require lifeguard v0.0.0

replace lifeguard => ./ref
