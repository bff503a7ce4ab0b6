; dsrlint test fixture: lints clean, but the loop's trip count is read
; from memory and carries no loop-bound annotation, so it has no
; inferable bound: -wcet and -leak must refuse it.
.program unbounded
.entry main

.data buf size=64 align=8
.word 8 2 3 4

.func main frame=96
    save 96
    set buf, %l0
    ld [%l0+0], %l5      ; n, unknown to the analysis
    mov 0, %l1           ; i
    mov 0, %l2           ; sum
loop:
    add %l2, %l1, %l2
    add %l1, 1, %l1
    cmp %l1, %l5
    bl loop
    st %l2, [%l0+0]
    halt
