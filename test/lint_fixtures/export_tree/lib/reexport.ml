include Base_impl
