let step x = fst (Pack.pair x) + List.length (Wrap.one x)
