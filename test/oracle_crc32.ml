(* Reference CRC-32 (reflected polynomial 0xEDB88320): the bytewise table
   loop that [Spitz_storage.Crc32] ran in OCaml before its slicing-by-8 C
   kernel, kept in the test tree as the differential oracle. *)

let mask = 0xFFFFFFFF

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
      done;
      !c)

let update crc s off len =
  let c = ref (lnot (Int32.to_int crc land mask) land mask) in
  for i = off to off + len - 1 do
    let idx = (!c lxor Char.code (String.unsafe_get s i)) land 0xff in
    c := Array.unsafe_get table idx lxor (!c lsr 8)
  done;
  Int32.of_int (lnot !c land mask)

let digest s = update 0l s 0 (String.length s)
