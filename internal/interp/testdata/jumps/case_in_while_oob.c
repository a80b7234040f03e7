int main(void) {
	int a[2] = {0, 0};
	int i = 0;
	switch (1) {
	case 0:
		while (i < 1) {
	case 1:
			a[2] = 1;
			i++;
		}
	}
	return a[0];
}
