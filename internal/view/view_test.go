package view

import (
	"testing"

	"rchdroid/internal/bundle"
)

func TestBaseViewIdentity(t *testing.T) {
	tv := NewTextView(7, "hi")
	if tv.ID() != 7 || tv.TypeName() != "TextView" {
		t.Fatalf("id/type = %d/%s", tv.ID(), tv.TypeName())
	}
	if tv.Base().Self() != View(tv) {
		t.Fatal("Self() does not return the widget")
	}
	if tv.String() != "TextView#7" {
		t.Fatalf("String = %q", tv.String())
	}
}

func TestTreeConstructionAndWalk(t *testing.T) {
	root := NewLinearLayout(1)
	root.AddChild(NewTextView(2, "a"))
	inner := NewLinearLayout(3)
	inner.AddChild(NewButton(4, "b"))
	root.AddChild(inner)

	if Count(root) != 4 {
		t.Fatalf("Count = %d, want 4", Count(root))
	}
	byType := CountByType(root)
	if byType["LinearLayout"] != 2 || byType["TextView"] != 1 || byType["Button"] != 1 {
		t.Fatalf("CountByType = %v", byType)
	}
	if v := FindByID(root, 4); v == nil || v.TypeName() != "Button" {
		t.Fatalf("FindByID(4) = %v", v)
	}
	if FindByID(root, 99) != nil {
		t.Fatal("FindByID(99) found something")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	root := NewLinearLayout(1)
	for i := 2; i <= 5; i++ {
		root.AddChild(NewTextView(ID(i), ""))
	}
	visited := 0
	Walk(root, func(v View) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Fatalf("visited = %d, want 3", visited)
	}
}

func TestParentChildLinks(t *testing.T) {
	g := NewLinearLayout(1)
	c := NewTextView(2, "")
	g.AddChild(c)
	if c.Base().Parent() != g {
		t.Fatal("parent not set")
	}
	g.RemoveChild(c)
	if c.Base().Parent() != nil {
		t.Fatal("parent not cleared on remove")
	}
	if len(g.Children()) != 0 {
		t.Fatal("child not removed")
	}
}

func TestDecorAttachPropagates(t *testing.T) {
	d := NewDecorView(1)
	c := NewTextView(2, "")
	d.AddChild(c)
	if c.Base().Attach() != d.AttachInfoRef() {
		t.Fatal("child does not share decor attach info")
	}
	// Children added to a nested group after attachment inherit it too.
	g := NewLinearLayout(3)
	d.AddChild(g)
	late := NewTextView(4, "")
	g.AddChild(late)
	if late.Base().Attach() != d.AttachInfoRef() {
		t.Fatal("late child not attached")
	}
}

func TestInvalidateMarksDirtyAndNotifiesHook(t *testing.T) {
	d := NewDecorView(1)
	tv := NewTextView(2, "x")
	d.AddChild(tv)
	var hooked []ID
	d.AttachInfoRef().OnInvalidate = func(v View) { hooked = append(hooked, v.ID()) }

	tv.SetText("y")
	if !tv.Base().Dirty() {
		t.Fatal("not dirty after SetText")
	}
	if len(hooked) != 1 || hooked[0] != 2 {
		t.Fatalf("hook calls = %v", hooked)
	}
	if d.AttachInfoRef().Invalidations < 1 {
		t.Fatal("invalidations not counted")
	}
	dirty := DirtyViews(d)
	found := false
	for _, v := range dirty {
		if v.ID() == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("DirtyViews = %v", dirty)
	}
	tv.Base().ClearDirty()
	if tv.Base().Dirty() {
		t.Fatal("ClearDirty failed")
	}
}

func TestReleasedViewRaisesNullPointer(t *testing.T) {
	d := NewDecorView(1)
	tv := NewTextView(2, "x")
	d.AddChild(tv)
	d.Release()
	if !tv.Base().Released() {
		t.Fatal("child not released")
	}
	defer func() {
		r := recover()
		npe, ok := r.(*NullPointerError)
		if !ok {
			t.Fatalf("recover = %v, want NullPointerError", r)
		}
		if npe.ViewID != 2 || npe.Op != "setText" {
			t.Fatalf("npe = %v", npe)
		}
		if npe.Error() == "" {
			t.Fatal("empty error message")
		}
	}()
	tv.SetText("boom")
}

func TestReleasedDecorRaisesWindowLeaked(t *testing.T) {
	d := NewDecorView(1)
	d.AttachToWindow()
	if !d.AttachedToWindow() {
		t.Fatal("not attached")
	}
	d.DetachFromWindow()
	d.Release()
	defer func() {
		if _, ok := recover().(*WindowLeakedError); !ok {
			t.Fatal("want WindowLeakedError")
		}
	}()
	d.AttachToWindow()
}

func TestShadowSunnyDispatch(t *testing.T) {
	d := NewDecorView(1)
	g := NewLinearLayout(2)
	tv := NewTextView(3, "")
	g.AddChild(tv)
	d.AddChild(g)

	d.DispatchShadowStateChanged(true)
	Walk(d, func(v View) bool {
		if !v.Base().Shadow() {
			t.Fatalf("%v not shadow", v)
		}
		return true
	})
	d.DispatchShadowStateChanged(false)
	d.DispatchSunnyStateChanged(true)
	if !tv.Base().Sunny() || tv.Base().Shadow() {
		t.Fatal("sunny dispatch failed")
	}
}

func TestSunnyPeerPointer(t *testing.T) {
	a := NewTextView(5, "old")
	b := NewTextView(5, "new")
	a.Base().SetSunnyPeer(b)
	if a.Base().SunnyPeer() != View(b) {
		t.Fatal("peer not stored")
	}
	if b.Base().SunnyPeer() != nil {
		t.Fatal("peer should default nil")
	}
}

func TestSaveRestoreRoundTripThroughBundle(t *testing.T) {
	d := NewDecorView(1)
	et := NewEditText(2, "draft")
	cb := NewCheckBox(3, "opt")
	lv := NewListView(4, []string{"a", "b", "c"})
	pb := NewProgressBar(5, 200)
	vv := NewVideoView(6, "video/intro")
	iv := NewImageView(7, "drawable/pic")
	for _, v := range []View{et, cb, lv, pb, vv, iv} {
		d.AddChild(v)
	}
	et.Type(" v2")
	cb.SetChecked(true)
	lv.PositionSelector(2)
	lv.SetItemChecked(1, true)
	lv.ScrollTo(40)
	pb.SetProgress(150)
	vv.SeekTo(9000)
	vv.SetPlaying(true)
	iv.SetDrawable("drawable/pic2")

	state := bundle.New()
	d.SaveState(state)

	// Fresh tree from the same "layout".
	d2 := NewDecorView(1)
	et2 := NewEditText(2, "draft")
	cb2 := NewCheckBox(3, "opt")
	lv2 := NewListView(4, []string{"a", "b", "c"})
	pb2 := NewProgressBar(5, 200)
	vv2 := NewVideoView(6, "video/intro")
	iv2 := NewImageView(7, "drawable/other")
	for _, v := range []View{et2, cb2, lv2, pb2, vv2, iv2} {
		d2.AddChild(v)
	}
	d2.RestoreState(state)

	if et2.Text() != "draft v2" || et2.Cursor() != len("draft v2") {
		t.Errorf("EditText restore: %q cursor %d", et2.Text(), et2.Cursor())
	}
	if !cb2.Checked() {
		t.Error("CheckBox restore failed")
	}
	if lv2.SelectorPosition() != 2 || !lv2.ItemChecked(1) || lv2.ScrollOffset() != 40 {
		t.Errorf("ListView restore: sel=%d checked=%v scroll=%d",
			lv2.SelectorPosition(), lv2.ItemChecked(1), lv2.ScrollOffset())
	}
	if pb2.Progress() != 150 || pb2.Max() != 200 {
		t.Errorf("ProgressBar restore: %d/%d", pb2.Progress(), pb2.Max())
	}
	if vv2.PositionMS() != 9000 || !vv2.Playing() {
		t.Errorf("VideoView restore: pos=%d playing=%v", vv2.PositionMS(), vv2.Playing())
	}
	if iv2.Drawable() != "drawable/pic2" {
		t.Errorf("ImageView restore: %q", iv2.Drawable())
	}
}

func TestNoIDViewsSaveNothing(t *testing.T) {
	d := NewDecorView(1)
	anon := NewTextView(NoID, "unsaved")
	d.AddChild(anon)
	for i := 0; i < 2; i++ { // the second save runs with cached keys
		state := bundle.New()
		d.SaveState(state)
		if keys := state.Keys(); len(keys) != 1 || keys[0] != "view:1" {
			t.Fatalf("save %d: keys %q, want only the decor's view:1", i, keys)
		}
	}
}

// TestClonedViewKeepsStateKey pins the cached section key across a
// clone: a tree cloned after it has saved, and one cloned before, save
// exactly what the original does.
func TestClonedViewKeepsStateKey(t *testing.T) {
	d := NewDecorView(1)
	d.AddChild(NewEditText(12, "draft"))
	d.AddChild(NewCheckBox(7, "opt"))
	d.AddChild(NewTextView(NoID, "anon"))
	before, err := CloneTree(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := bundle.New()
	d.SaveState(want)
	after, err := CloneTree(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := want.String(); got != `{view:1={visible=true}, view:12={cursor=5, text="draft", visible=true}, view:7={checked=false, visible=true}}` {
		t.Fatalf("original saved %s", got)
	}
	for name, tree := range map[string]View{"cloned before save": before, "cloned after save": after} {
		got := bundle.New()
		tree.SaveState(got)
		if !got.Equal(want) || got.String() != want.String() {
			t.Errorf("%s: saved %s, want %s", name, got, want)
		}
	}
}

func TestRestoreWithoutSavedStateIsNoop(t *testing.T) {
	tv := NewTextView(9, "orig")
	tv.RestoreState(bundle.New())
	if tv.Text() != "orig" {
		t.Fatalf("text = %q", tv.Text())
	}
	tv.RestoreState(nil)
	if tv.Text() != "orig" {
		t.Fatal("nil restore changed state")
	}
}

func TestVisibilitySavedOnPlainViews(t *testing.T) {
	d := NewDecorView(1)
	g := NewLinearLayout(2)
	d.AddChild(g)
	g.SetVisible(false)
	state := bundle.New()
	d.SaveState(state)

	d2 := NewDecorView(1)
	g2 := NewLinearLayout(2)
	d2.AddChild(g2)
	d2.RestoreState(state)
	if g2.Visible() {
		t.Fatal("visibility not restored")
	}
}
