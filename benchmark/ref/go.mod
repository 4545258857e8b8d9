module lifeguard

go 1.22
