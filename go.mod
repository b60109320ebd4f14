module chant

go 1.24
